import functools
import sys

import pytest

from braceforge import (enumerate_skew_braces, groups_of_order, linearize,
                        parse_field)

FIELD_SPECS = ("Q", "Fp:5")


@pytest.fixture(scope="session")
def corpus():
    """Every skew brace on a group of order <= 6, linearized over both fields.

    Items are (label, skew brace, linearized Hopf brace).
    """
    items = []
    for order in range(1, 7):
        for g in groups_of_order(order):
            for i, s in enumerate(enumerate_skew_braces(g)):
                for spec in FIELD_SPECS:
                    b = linearize(s, parse_field(spec))
                    items.append((f"{g.label}#{i}:{spec}", s, b))
    return items


def package_bindings():
    """(module, attribute name, value) for every name a braceforge module binds."""
    for name, mod in list(sys.modules.items()):
        if name == "braceforge" or name.startswith("braceforge."):
            for attr, value in list(vars(mod).items()):
                yield mod, attr, value


def memoized_functions() -> dict:
    """Every function the braceforge package binds that keeps a cache, by
    name."""
    return {value.__name__: value for _, _, value in package_bindings()
            if callable(getattr(value, "cache_clear", None))}


def clear_caches() -> None:
    """Empty the cache of every memoized function in the package."""
    for fn in memoized_functions().values():
        fn.cache_clear()


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*functions) wraps each function wherever the braceforge
    package binds it, so calls from inside the package count too, and
    returns the call counts by function name, updated as calls happen."""
    def install(*functions):
        counts = dict.fromkeys((fn.__name__ for fn in functions), 0)
        originals = {id(fn) for fn in functions}

        def counting(fn):
            # wraps copies a memoized fn's cache_clear, so clear_caches still sees it
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod, attr, value in package_bindings():
            if id(value) in originals:
                monkeypatch.setattr(mod, attr, counting(value))
        return counts
    return install
