"""The coset-wise selection is the leader table, reordered by truncation."""

import random

from fcclib import linear_function, select_subspace_representatives
from fcclib.functions import classify, min_weight_representatives
from helpers import all_words


def _unit_basis_with_repeats(rng, q, l, k):
    """A unit-basis f whose l distinct non-zero columns form a random basis of
    F_q^l, each used at least once, padded with repeats and zero columns."""
    while True:
        basis = [tuple(rng.randrange(q) for _ in range(l)) for _ in range(l)]
        if len(set(basis)) < l or not all(any(c) for c in basis):
            continue
        columns = basis + [rng.choice(basis + [(0,) * l]) for _ in range(k - l)]
        rng.shuffle(columns)
        try:
            return linear_function(q, [[c[i] for c in columns] for i in range(l)])
        except ValueError:
            continue  # the chosen columns were dependent


def test_selection_is_the_leader_table_in_truncation_order():
    rng = random.Random(20261019)
    non_unit_cases = 0
    for _ in range(120):
        q = rng.choice([2, 3, 5])
        l = rng.randrange(1, 4)
        k = rng.randrange(l, {2: 8, 3: 6, 5: 4}[q] + 1)
        f = _unit_basis_with_repeats(rng, q, l, k)
        assert classify(f).unit_basis_class
        sel = select_subspace_representatives(f)
        leaders = min_weight_representatives(f)
        assert sorted(sel.class_indices) == list(range(q**l))
        for i, member in enumerate(sel.members):
            assert member == leaders[sel.class_indices[i]]
        assert sel.truncated == tuple(all_words(q, l))
        for member, truncation in zip(sel.members, sel.truncated):
            assert tuple(member[p] for p in sel.unit_positions) == truncation
            assert all(
                s == 0 for j, s in enumerate(member) if j not in sel.unit_positions
            )
        non_unit_cases += any(sum(map(bool, col)) > 1 for col in zip(*f.matrix))
    assert non_unit_cases > 60  # most cases use columns that are not unit vectors
