import math
import operator

import numpy as np
import pytest

from etcphd.partitions import (
    Partition,
    bell_number,
    is_partition_of,
    partition_sums,
    partitions_of,
    subpartitions_of,
)
from etcphd.pgf import Jet


def test_bell_numbers():
    assert bell_number(0) == 1
    assert bell_number(6) == 203
    assert bell_number(8) == 4140
    assert [bell_number(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_bell_number_range():
    with pytest.raises(ValueError):
        bell_number(-1)
    with pytest.raises(ValueError):
        bell_number(21)


def test_empty_set_has_one_empty_partition():
    assert partitions_of(()) == [Partition(())]


def test_two_element_enumeration_order():
    parts = partitions_of({0, 1})
    assert parts == [Partition(((0, 1),)), Partition(((0,), (1,)))]


def test_counts_match_bell():
    for n in range(0, 9):
        assert len(partitions_of(range(n))) == bell_number(n)


def test_enumeration_is_deterministic():
    for n in range(0, 7):
        assert partitions_of(range(n)) == partitions_of(range(n))


def test_every_partition_passes_invariant_checker():
    for n in range(0, 7):
        for p in partitions_of(range(n)):
            assert is_partition_of(p, range(n))


def test_invariant_checker_rejects_bad_partitions():
    assert not is_partition_of(Partition(((0,), (0, 1))), (0, 1))       # overlap
    assert not is_partition_of(Partition(((0,),)), (0, 1))              # not covering
    assert not is_partition_of(Partition(((1,), (0,))), (0, 1))         # cell order
    assert not is_partition_of(Partition(((1, 0),)), (0, 1))            # label order


def test_non_contiguous_labels():
    parts = partitions_of((5, 1, 3))
    assert len(parts) == bell_number(3)
    assert parts[0] == Partition(((1, 3, 5),))
    for p in parts:
        assert is_partition_of(p, (1, 3, 5))


def test_subpartitions_examples():
    assert subpartitions_of((2,)) == [Partition(((2,),))]
    assert len(subpartitions_of((0, 1, 2))) == 5
    assert len(subpartitions_of((0, 1, 2, 3, 4))) == 52


def test_subpartitions_requires_nonempty_cell():
    with pytest.raises(ValueError):
        subpartitions_of(())


def test_subpartitions_subset_of_partitions():
    for partition in partitions_of(range(5)):
        for cell in partition:
            subs = subpartitions_of(cell)
            assert len(subs) == bell_number(len(cell))
            assert set(subs) <= set(partitions_of(cell))


def test_subpartition_cache_reuse():
    cache = {}
    first = subpartitions_of((0, 2), cache=cache)
    second = subpartitions_of((0, 2), cache=cache)
    assert first is second


def test_partitions_are_plain_canonical_tuples():
    # No size limit here: the corrector step bounds |Z| before it enumerates.
    parts = partitions_of(range(9))
    assert len(set(parts)) == len(parts) == 21147
    assert all(type(p) is tuple and is_partition_of(p, range(9)) for p in parts)
    assert parts[0] == Partition((tuple(range(9)),)) == (tuple(range(9)),)


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        partitions_of((0, 0, 1))


# -- partition-sum kernel -------------------------------------------------------

ORDER = 3


def _coefficient_total(elements):
    return tuple(math.fsum(column) for column in zip(*elements))


def _convolve(a, b):
    return tuple(np.convolve(a, b)[: len(a)].tolist())


def _jet_total(jets):
    return Jet(_coefficient_total(jet.coeffs for jet in jets))


def _rings(rng, n):
    """(name, weights, mul, total, coefficients) for floats, jets and plain
    convolution, with random signed weights on every non-empty bitmask."""
    size = 1 << n
    floats = [1.0] + rng.uniform(-1.0, 1.0, size - 1).tolist()
    jets = [Jet.constant(1.0, ORDER)] + [
        Jet(tuple(rng.uniform(-1.0, 1.0, ORDER + 1).tolist())) for _ in range(size - 1)
    ]
    unit = (1.0,) + (0.0,) * n
    sequences = [unit] + [
        tuple(rng.uniform(-1.0, 1.0, n + 1).tolist()) for _ in range(size - 1)
    ]
    return [
        ("float", floats, operator.mul, math.fsum, lambda x: (x,)),
        ("jet", jets, operator.mul, _jet_total, lambda x: x.coeffs),
        ("convolution", sequences, _convolve, _coefficient_total, lambda x: x),
    ]


def _brute_force(weights, mul, coefficients, ground):
    """Per coefficient: the enumerated partition sum and the sum of |terms|."""
    terms = []
    for partition in partitions_of(ground):
        product = weights[0]
        for cell in partition:
            product = mul(product, weights[sum(1 << z for z in cell)])
        terms.append(coefficients(product))
    return ([math.fsum(column) for column in zip(*terms)],
            [math.fsum(abs(v) for v in column) for column in zip(*terms)])


@pytest.mark.parametrize("n", range(9))
def test_partition_sums_match_enumeration_on_signed_weights(n):
    rng = np.random.default_rng(1000 + n)
    full = (1 << n) - 1
    for name, weights, mul, total, coefficients in _rings(rng, n):
        every = partition_sums(weights, mul, total, every_subset=True)
        only_full = partition_sums(weights, mul, total)
        # Every subset in the float ring; the full set in all three.
        masks = range(full + 1) if name == "float" else [full]
        for mask in masks:
            ground = [z for z in range(n) if mask >> z & 1]
            exact, magnitude = _brute_force(weights, mul, coefficients, ground)
            for got in (every[mask], only_full[mask]) if mask == full else (every[mask],):
                for value, reference, scale in zip(coefficients(got), exact, magnitude):
                    assert abs(value - reference) <= 1e-12 * scale, (name, n, mask)


@pytest.mark.parametrize("n", range(9))
def test_partition_sums_of_full_set_need_no_more_products_than_enumeration(n):
    calls = []

    def mul(a, b):
        calls.append(1)
        return a * b

    partition_sums([1.0] * (1 << n), mul, math.fsum)
    enumeration = sum(max(len(p) - 1, 0) for p in partitions_of(range(n)))
    # One product per pair (cell W, remainder) below the full set: (3**(n-1) - 1) / 2.
    assert len(calls) == ((3 ** (n - 1) - 1) // 2 if n else 0)
    assert len(calls) <= enumeration
