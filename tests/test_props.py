"""The invariant table behind props-report.

Rows keep their names and order, tolerances are only ever tightened, and
`run_all` is `evaluate` on a fresh props stream per row.
"""

import pytest

from reflora import props, rng

# the table as first published: name and the loosest tolerance allowed
PUBLISHED = (
    ("linalg.sqrt_composition", 1e-10),
    ("linalg.inv_sqrt_is_inverse", 1e-9),
    ("linalg.norm_ordering", 1e-12),
    ("linalg.product_sqrt_identity", 1e-9),
    ("refactor.balance", 1e-8),
    ("refactor.stationarity", 1e-8),
    ("refactor.gram_product_form", 1e-9),
    ("refactor.minimality", 0.0),
    ("refactor.congruence_invariance", 1e-8),
    ("refactor.scalar_critical_point", 1e-12),
    ("optim.sandwich", 1e-12),
    ("optim.orthogonal_invariance", 1e-9),
    ("optim.update_decomposition", 1e-9),
    ("optim.balance_propagation", 1e-7),
    ("optim.warmup_semantics", 0.0),
    ("optim.horizontal_update", 1e-8),
    ("problems.quadratic_bound", 1e-12),
    ("problems.instance_determinism", 0.0),
)


def test_names_unique_and_in_order():
    names = [inv.name for inv in props.INVARIANTS]
    assert len(set(names)) == len(names)
    assert names == [name for name, _ in PUBLISHED]


def test_tolerances_only_tighten():
    for inv, (name, tolerance) in zip(props.INVARIANTS, PUBLISHED):
        assert inv.tolerance <= tolerance, name


@pytest.mark.parametrize("seed,trials", [(0, 1), (3, 12)])
def test_run_all_is_evaluate_per_row(seed, trials):
    assert props.run_all(seed, trials) == [
        props.evaluate(inv, rng.stream(seed, rng.STREAM_PROPS), trials)
        for inv in props.INVARIANTS]
