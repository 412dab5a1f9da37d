"""The power-root kernel and the row-blocked maps against full-row references.

``marginal_values`` (the fused marginal and slope) and ``expected_utilities``
evaluate a bounded number of rows at a time, and read a law table's atoms in
place of per-row copies; neither may change a single bit, so those checks
are ``np.array_equal`` against the full-row formulas kept below and against
the rows gathered out of the table.  ``power_roots`` takes safeguarded Newton steps on the
unfinished rows only; two valid roots of a flat marginal may differ in many
digits, so its checks are the root contract instead: a positive root exactly
where the threshold is above mu (the support of the full-row bisection kept
below as the reference), and the marginal there within ROOT_REL_TOL of mu on
every row the kernel does not report as failed.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdma_sra import McsTable, kernels
from ofdma_sra.dual import _rows
from ofdma_sra.kernels import (_BLOCK_ROWS, ROOT_MAX_ITER, ROOT_REL_TOL,
                               _u_der_t, _u_value, zero_power_utilities)

REF_GROW_MAX = 200  # doublings of the reference's upper bracket

from conftest import atom_instance


# -- full-row references -------------------------------------------------------


def ref_marginal(gamma, w, a, b, r, ucode, uparam, p):
    s = b[:, None] * p[:, None] * gamma
    der_t = _u_der_t(ucode, uparam[:, None], a[:, None], r[:, None], s)[0]
    return a * b * r * np.sum(w * gamma * der_t, axis=1)


def ref_expected(gamma, w, a, b, r, ucode, uparam, p):
    s = b[:, None] * p[:, None] * gamma
    vals = _u_value(ucode, uparam[:, None], a[:, None], r[:, None], s)
    return np.sum(w * vals, axis=1)


def ref_power_roots(gamma, w, a, b, r, ucode, uparam, mu):
    """Bisection over every row on every pass."""
    n = gamma.shape[0]
    zeros = np.zeros(n)
    mv0 = ref_marginal(gamma, w, a, b, r, ucode, uparam, zeros)
    out = np.zeros(n)
    todo = mv0 > mu
    if not todo.any():
        return out
    hi = np.ones(n)
    for _ in range(REF_GROW_MAX):
        mv = ref_marginal(gamma, w, a, b, r, ucode, uparam, hi)
        grow = todo & (mv > mu)
        if not grow.any():
            break
        hi[grow] *= 2.0
    lo = np.zeros(n)
    for _ in range(ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        mv = ref_marginal(gamma, w, a, b, r, ucode, uparam, mid)
        done = todo & (np.abs(mv - mu) <= ROOT_REL_TOL * mu)
        out[done] = mid[done]
        todo &= ~done
        if not todo.any():
            break
        up = todo & (mv > mu)
        lo[up] = mid[up]
        dn = todo & (mv <= mu)
        hi[dn] = mid[dn]
    out[todo] = 0.5 * (lo + hi)[todo]
    return out


# -- packed rows ---------------------------------------------------------------


def packed(rng, n_rows, ucode, max_atoms=6, span=(-2.0, 2.0)):
    """Random rows with 1..max_atoms atoms each, zero-padded to max_atoms.

    Atoms are 10**uniform(span); a fifth of the rows are point masses.
    """
    counts = rng.integers(1, max_atoms + 1, n_rows)
    counts[rng.random(n_rows) < 0.2] = 1
    gamma = np.zeros((n_rows, max_atoms))
    w = np.zeros((n_rows, max_atoms))
    for i, c in enumerate(counts):
        gamma[i, :c] = 10.0 ** rng.uniform(*span, c)
        wi = rng.uniform(0.1, 1.0, c)
        w[i, :c] = wi / wi.sum()
    if ucode == 3:
        a = rng.choice([1.0, 0.3], n_rows)
        b = rng.choice([1.0, 0.4], n_rows)
        r = rng.choice([1.0, 1.0, 0.6], n_rows)
    else:
        m = rng.integers(1, 5, n_rows)
        a = rng.choice([1.0, 0.2], n_rows)
        b = 1.5 / (2.0 ** (m + 1) - 1.0)
        r = m + 1.0
    uparam = rng.uniform(0.2, 3.0, n_rows)
    return gamma, w, a, b, r, ucode, uparam


def thresholds(rows):
    return ref_marginal(*rows, np.zeros(rows[0].shape[0]))


def kernel_roots(rows, mu):
    """The kernel's roots and the number of rows it reports as failed."""
    mv0, dmv0 = kernels._marginal_slope(*rows, np.zeros(rows[0].shape[0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = kernels._power_roots(*rows, mu, mv0, dmv0)
    reports = [re.match(r"power_roots: (\d+) of \d+ rows", str(c.message))
               for c in caught]
    assert sum(m is not None for m in reports) <= 1
    return got, sum(int(m.group(1)) for m in reports if m)


def assert_root_contract(rows, mu, may_fail=False):
    """Checks the contract; failures are allowed only where may_fail says."""
    got, failed = kernel_roots(rows, mu)
    assert may_fail or failed == 0
    support = thresholds(rows) > mu
    assert np.array_equal(got > 0.0, support)
    assert np.array_equal(got > 0.0, ref_power_roots(*rows, mu) > 0.0)
    mv = ref_marginal(*rows, got)[support]
    assert np.count_nonzero(np.abs(mv - mu) > ROOT_REL_TOL * mu) == failed
    return got


@pytest.mark.parametrize("ucode", [0, 1, 2, 3])
def test_roots_match_reference_per_code(rng, ucode):
    rows = packed(rng, 300, ucode)
    mv0 = thresholds(rows)
    for q in (0.05, 0.3, 0.5, 0.7, 0.95):
        assert_root_contract(rows, float(np.quantile(mv0, q)))


def test_roots_active_share_above_and_below_half(rng):
    rows = packed(rng, 400, 0)
    mv0 = thresholds(rows)
    for q, more_than_half in ((0.2, True), (0.8, False)):
        mu = float(np.quantile(mv0, q))
        assert (np.mean(mv0 > mu) > 0.5) == more_than_half
        p = assert_root_contract(rows, mu)
        assert np.array_equal(p > 0.0, mv0 > mu)


def test_roots_all_zero_above_every_threshold(rng):
    rows = packed(rng, 50, 2)
    mu = 2.0 * float(thresholds(rows).max())
    assert not assert_root_contract(rows, mu).any()


def test_roots_tiny_mu_grows_far(rng):
    rows = packed(rng, 60, 0, span=(-6.0, -3.0))
    p = assert_root_contract(rows, 1e-12)
    assert p.max() > 2.0 ** 20


def test_roots_capacity_log_deep_saturation():
    # a = b = r = 1: exp(-p*gamma) underflows long before the roots, so only
    # the log-space branch keeps the marginal finite
    gamma = np.array([[0.3, 1.7, 4.0], [2.0, 0.0, 0.0], [50.0, 80.0, 0.0]])
    w = np.array([[0.25, 0.5, 0.25], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    one = np.ones(3)
    rows = (gamma, w, one, one, one, 3, np.array([0.5, 1.0, 2.0]))
    for mu in (1e-3, 1e-5, 1e-7):
        p = assert_root_contract(rows, mu)
        assert np.all(p * gamma.max(axis=1) > 800.0)


def test_roots_across_blocks_and_gathers(rng, monkeypatch):
    rows = packed(rng, 2 * _BLOCK_ROWS + 300, 1, max_atoms=4)
    sizes = []
    gather = kernels._gather

    def counting(work, todo):
        out = gather(work, todo)
        sizes.append((todo.size, out[1].size))
        return out

    monkeypatch.setattr(kernels, "_gather", counting)
    mv0 = thresholds(rows)
    for q in (0.1, 0.6):
        sizes.clear()
        assert_root_contract(rows, float(np.quantile(mv0, q)))
        # the first gather waits until at most half of the rows are left
        assert sizes and sizes[0][0] == rows[0].shape[0]
        assert all(0 < 2 * kept <= size for size, kept in sizes)


def test_roots_on_packed_row_subset():
    inst = atom_instance(5, n_sub=6, n_usr=4, n_mcs=3, n_atoms=8)
    rows = np.flatnonzero(np.random.default_rng(3).random(inst.shape).ravel() < 0.4)
    args = _rows(inst, rows)
    mv0 = thresholds(args)
    for q in (0.25, 0.75):
        assert_root_contract(args, float(np.quantile(mv0, q)))


@pytest.mark.parametrize("ucode", [0, 1, 2, 3])
def test_blocked_maps_match_full_rows(rng, ucode):
    n = 2 * _BLOCK_ROWS + 17
    rows = packed(rng, n, ucode)
    for p in (np.zeros(n), 10.0 ** rng.uniform(-3.0, 3.0, n)):
        assert np.array_equal(kernels._marginal_slope(*rows, p)[0],
                              ref_marginal(*rows, p))
        assert np.array_equal(kernels._expected(*rows, p), ref_expected(*rows, p))


@pytest.mark.parametrize("ucode", [0, 1, 2, 3])
def test_blocked_marginal_slope_matches_one_pass(rng, ucode):
    n = 2 * _BLOCK_ROWS + 17
    rows = packed(rng, n, ucode)
    for p in (np.zeros(n), 10.0 ** rng.uniform(-3.0, 3.0, n)):
        both = kernels._marginal_slope(*rows, p)
        assert np.array_equal(both, kernels._marginal_slope_rows(*rows, p))
        # the marginal keeps the full-row expression, so mu_max stays exact
        assert np.array_equal(both[0], ref_marginal(*rows, p))


@pytest.mark.parametrize("ucode, rate", [(0, None), (1, None), (2, None),
                                         (3, 1.0), (3, 0.6)])
def test_slope_matches_central_difference(rng, ucode, rate):
    gamma, w, a, b, r, ucode, uparam = packed(rng, 200, ucode)
    if rate is not None:
        r = np.full(r.size, rate)
    rows = (gamma, w, a, b, r, ucode, uparam)
    p = 10.0 ** rng.uniform(-2.0, 1.0, r.size)
    h = 1e-5 * p
    diff = (kernels._marginal_slope(*rows, p + h)[0]
            - kernels._marginal_slope(*rows, p - h)[0]) / (2.0 * h)
    slope = kernels._marginal_slope(*rows, p)[1]
    assert np.all(slope < 0.0)
    assert np.allclose(slope, diff, rtol=1e-5, atol=0.0)


def test_roots_fail_loudly_when_the_root_is_infinite():
    # capacity-log at a = b = r = 1: the marginal theta/(1 + p*gamma) stays
    # positive, so at mu = 0 no power meets the tolerance
    one = np.ones(1)
    rows = (np.array([[2.0]]), np.array([[1.0]]), one, one, one, 3, one)
    mv0, dmv0 = kernels._marginal_slope(*rows, np.zeros(1))
    with pytest.warns(RuntimeWarning, match=r"power_roots: 1 of 1 rows"):
        got = kernels._power_roots(*rows, 0.0, mv0, dmv0)
    assert got[0] > 0.0 and np.isfinite(got[0])
    assert assert_root_contract(rows, 0.0, may_fail=True) == got


def test_maps_on_no_rows():
    rng = np.random.default_rng(0)
    for rows in (packed(rng, 0, 0), law_table(rng, 0, 15, 0)):
        assert kernels._expected(*rows, np.zeros(0)).shape == (0,)
        assert kernels._marginal_slope(*rows, np.zeros(0)).shape == (2, 0)


# -- zero power: the closed form against the atom sum --------------------------


@pytest.mark.parametrize("ucode", [0, 1, 2, 3])
def test_zero_power_utilities_match_the_atom_sum(rng, ucode):
    tables = [McsTable.capacity(4)] + ([] if ucode == 3 else [McsTable.qam(4)])
    for mcs in tables:  # a = 1: U(0) = 0, exactly as every atom's term
        a, b, r = (x.ravel() for x in (mcs.a, mcs.b, mcs.r))
        gamma, w = packed(rng, a.size, ucode)[:2]
        uparam = rng.uniform(0.2, 3.0, a.size)
        zero = zero_power_utilities(a, r, ucode, uparam)
        assert np.array_equal(zero, kernels._expected(
            gamma, w, a, b, r, ucode, uparam, np.zeros(a.size)))
        assert not zero.any()
    gamma, w, a, b, r, _, uparam = rows = packed(rng, 400, ucode)
    assert np.any(a < 1.0)  # a < 1: the weights sum to 1 within rounding
    zero = zero_power_utilities(a, r, ucode, uparam)
    atoms = kernels._expected(*rows, np.zeros(a.size))
    assert np.all(np.abs(zero - atoms) <= 8 * np.spacing(np.abs(zero)))


# -- the law table: one atom row per law, read by its M rows in place ----------


def law_table(rng, n_laws, n_mcs, ucode):
    """Random laws as a (laws, atoms) table, with n_mcs rows per law."""
    return packed(rng, n_laws, ucode)[:2] + packed(rng, n_laws * n_mcs, ucode)[2:]


def gathered(table):
    """The same rows with each row's law copied out, one law per row."""
    gamma, w, a = table[:3]
    law = np.arange(a.size) // (a.size // gamma.shape[0])
    return (gamma[law], w[law]) + table[2:]


@pytest.mark.parametrize("ucode", [0, 1, 2, 3])
def test_law_table_maps_match_gathered_rows(rng, ucode):
    # blocks of 2048 // 15 = 136 laws: 150 laws end in a partial block
    table = law_table(rng, 150, 15, ucode)
    rows = gathered(table)
    n = rows[0].shape[0]
    assert n > _BLOCK_ROWS and _BLOCK_ROWS % 15
    if ucode == 3:  # both capacity-log branches
        assert np.any(rows[4] == 1.0) and np.any(rows[4] < 1.0)
    for p in (np.zeros(n), 10.0 ** rng.uniform(-3.0, 3.0, n)):
        assert np.array_equal(kernels._marginal_slope(*table, p),
                              kernels._marginal_slope(*rows, p))
        assert np.array_equal(kernels._expected(*table, p),
                              kernels._expected(*rows, p))


@pytest.mark.parametrize("ucode", [0, 1, 2, 3])
def test_law_table_roots_match_gathered_rows(rng, ucode, monkeypatch):
    table = law_table(rng, 150, 15, ucode)
    rows = gathered(table)
    n = rows[0].shape[0]
    mv0, dmv0 = kernels._marginal_slope(*rows, np.zeros(n))
    laws = []
    gather = kernels._gather

    def recording(work, todo):
        laws.append((work[0].shape[0], todo.size))
        return gather(work, todo)

    monkeypatch.setattr(kernels, "_gather", recording)
    for q, more_than_half in ((0.2, True), (0.8, False)):
        mu = float(np.quantile(mv0, q))
        assert (np.mean(mv0 > mu) > 0.5) == more_than_half
        laws.clear()
        got = kernels._power_roots(*table, mu, mv0, dmv0)
        # the first gather reads each row's law from the table, once; later
        # ones cut a working set of one law per row
        assert laws[0] == (150, n)
        assert all(n_laws == size for n_laws, size in laws[1:])
        assert np.array_equal(got, kernels._power_roots(*rows, mu, mv0, dmv0))


def test_flat_reads_the_law_table_in_place():
    packed_bytes = []
    for n_mcs in (1, 15):
        inst = atom_instance(2, n_sub=4, n_usr=3, n_mcs=n_mcs, n_atoms=8)
        gamma, w = inst.flat()[:2]
        assert np.shares_memory(gamma, inst.dists.values)
        assert np.shares_memory(w, inst.dists.weights)
        packed_bytes.append(gamma.nbytes + w.nbytes)
        idx = np.array([0, n_mcs, 5 * n_mcs - 1, inst.flat()[2].size - 1])
        assert np.array_equal(_rows(inst, idx)[0],
                              inst.dists.values.reshape(-1, 8)[idx // n_mcs])
    assert packed_bytes[0] == packed_bytes[1] == 2 * 12 * 8 * 8


# -- property: any atoms, any code, any mu in the solver's range ---------------


@st.composite
def kernel_case(draw):
    ucode = draw(st.integers(0, 3))
    n_rows = draw(st.integers(1, 10))
    n_atoms = draw(st.integers(1, 5))
    exponent = st.floats(-6.0, 6.0)
    gamma = np.zeros((n_rows, n_atoms))
    w = np.zeros((n_rows, n_atoms))
    for i in range(n_rows):
        c = draw(st.integers(1, n_atoms))
        gamma[i, :c] = 10.0 ** np.array(draw(st.lists(exponent, min_size=c,
                                                       max_size=c)))
        wi = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=c,
                                    max_size=c)))
        w[i, :c] = wi / wi.sum()
    if ucode == 3:
        entries = st.tuples(st.sampled_from([1.0, 0.3]),
                            st.sampled_from([1.0, 0.4]),
                            st.sampled_from([1.0, 0.6]))
    else:
        entries = st.integers(1, 15).map(
            lambda m: (1.0, 1.5 / (2.0 ** (m + 1) - 1.0), m + 1.0))
    a, b, r = (np.array(col) for col in zip(*draw(
        st.lists(entries, min_size=n_rows, max_size=n_rows))))
    uparam = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=n_rows,
                                    max_size=n_rows)))
    rows = (gamma, w, a, b, r, ucode, uparam)
    p_con = draw(st.sampled_from([1.0, 64.0, 640.0]))
    mu_min = float(ref_marginal(*rows, np.full(n_rows, p_con)).min())
    mu_max = float(thresholds(rows).max())
    mu = mu_min + draw(st.floats(0.0, 1.0)) * (mu_max - mu_min)
    return rows, mu


# capacity-log rows at a = b = r = 1 with roots near 1/mu = 1.7e297: the
# slope underflows to 0 from p ~ 1e154 on, and doubling from there takes
# more than ROOT_MAX_ITER steps
_FAR_ROOTS = ((np.array([[1000.0]] + [[1.0]] * 7), np.ones((8, 1)),
               np.ones(8), np.ones(8), np.array([0.6] + [1.0] * 7), 3,
               np.ones(8)), 6e-298)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(kernel_case())
@example(_FAR_ROOTS)
def test_roots_property(case):
    rows, mu = case
    # mu = mu_min = 0 when some marginal at P_con underflows; roots of rows
    # whose marginal never reaches 0 are then infinite and reported failed
    with np.errstate(all="ignore"):
        assert_root_contract(rows, mu, may_fail=mu == 0.0)
