"""Set-partition enumeration over measurement labels.

Partitions are generated from restricted-growth strings in lexicographic
order, which yields a canonical enumeration directly: cells come out sorted
by their smallest element, with ascending labels inside each cell, and two
enumerations of the same ground set are identical sequences.  The number of
partitions of an n-set is the Bell number B_n; the corrector step bounds the
measurement count before it enumerates.
"""

from __future__ import annotations

from typing import Iterator

Cell = tuple[int, ...]
# Disjoint non-empty cells covering a label set.  Canonical form: each cell
# holds ascending labels, cells are ordered by their smallest element.
Partition = tuple[Cell, ...]

BELL_MAX = 20


def bell_number(n: int) -> int:
    """Exact Bell number via the Bell-triangle recurrence, for 0 <= n <= 20."""
    if not 0 <= n <= BELL_MAX:
        raise ValueError(f"bell_number requires 0 <= n <= {BELL_MAX}, got {n}")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def _restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All restricted-growth strings of length n in lexicographic order."""
    if n == 0:
        yield ()
        return
    a = [0] * n
    # b[i] = 1 + max(a[0..i-1]) is the highest value position i may take.
    b = [1] * n
    while True:
        yield tuple(a)
        j = n - 1
        while j > 0 and a[j] >= b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = max(b[j], a[j] + 1) if i == j + 1 else max(b[i - 1], a[i - 1] + 1)


def _cells_from_string(labels: tuple[int, ...], rgs: tuple[int, ...]) -> Partition:
    blocks: list[list[int]] = []
    for label, block_id in zip(labels, rgs):
        if block_id == len(blocks):
            blocks.append([label])
        else:
            blocks[block_id].append(label)
    return tuple(tuple(block) for block in blocks)


def partitions_of(ground) -> list[Partition]:
    """Every partition of `ground` exactly once, in canonical order.

    The empty set has exactly one partition: the empty partition.
    """
    labels = tuple(sorted(ground))
    n = len(labels)
    if len(set(labels)) != n:
        raise ValueError(f"ground set contains duplicate labels: {labels}")
    return [_cells_from_string(labels, rgs) for rgs in _restricted_growth_strings(n)]


def subpartitions_of(cell, cache: dict | None = None) -> list[Partition]:
    """Partitions of one non-empty cell; semantics identical to partitions_of.

    `cache` memoizes by cell content; pass one dict per corrector step.
    """
    labels = tuple(sorted(cell))
    if not labels:
        raise ValueError("subpartitions_of requires a non-empty cell")
    if cache is not None and labels in cache:
        return cache[labels]
    result = partitions_of(labels)
    if cache is not None:
        cache[labels] = result
    return result


def partition_sums(weight, mul, total, every_subset: bool = False) -> list:
    """Partition sums over label bitmasks, in any commutative ring.

    F[S] sums, over the partitions of bitmask S, the product of weight[W]
    over the cells W.  `mul` multiplies two ring elements and `total` sums a
    list of them; an exact sum keeps rounding from piling up over the terms.
    weight has 2**n entries, weight[0] being the unit.  Fixing the lowest
    label, F(S) = sum of weight[W] * F(S - W) over the W within S that hold
    min S: O(3**n) products, no partition built.  Without `every_subset` only
    what F[full] needs is evaluated (the sets without label 0, and the full
    set); the other entries stay None.
    """
    full = len(weight) - 1
    sums = [weight[0]] + [None] * full
    for mask in range(1, full + 1):
        if mask & 1 and mask != full and not every_subset:
            continue
        low = mask & -mask
        rest = mask ^ low
        terms = [weight[mask]]
        # Cells low|sub for every proper submask sub of rest, down to sub = 0.
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            terms.append(mul(weight[low | sub], sums[rest ^ sub]))
        sums[mask] = total(terms)
    return sums


def is_partition_of(partition: Partition, ground) -> bool:
    """Invariant checker: disjoint, non-empty, canonical cells covering `ground`."""
    seen: set[int] = set()
    previous_min = None
    for cell in partition:
        if not cell:
            return False
        if list(cell) != sorted(cell):
            return False
        if previous_min is not None and cell[0] <= previous_min:
            return False
        previous_min = cell[0]
        for label in cell:
            if label in seen:
                return False
            seen.add(label)
    return seen == set(ground)
