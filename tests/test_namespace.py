"""The package namespace is the union of its modules' __all__ lists."""

from collections import Counter

import udwpair
from udwpair import (
    detector_state,
    field_correlators,
    quantum_measures,
    special_functions,
    sweep_engine,
    verify,
)

MODULES = (
    detector_state,
    field_correlators,
    quantum_measures,
    special_functions,
    sweep_engine,
    verify,
)


def test_no_name_is_exported_by_two_modules():
    # a star import would let the later module's name shadow the earlier's
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_every_exported_name_is_its_home_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(udwpair, name) is getattr(module, name), (module.__name__, name)
    assert set(udwpair.__all__) == {n for m in MODULES for n in m.__all__} | {"__version__"}


def test_package_all_has_no_duplicates():
    assert len(udwpair.__all__) == len(set(udwpair.__all__))
