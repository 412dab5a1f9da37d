"""Shared builders and independent closed-form oracles for the tests.

For point-mass SNRs under the plain goodput utility everything has a closed
form: the marginal is a*b*r*gamma*exp(-b*p*gamma), so the stationarity power
is log(a*b*r*gamma/mu)/(b*gamma) (clamped at 0).  Those expressions are the
reference the solver is checked against; they never call into the package's
root-finder.
"""

import numpy as np
import pytest

from ofdma_sra import (McsTable, ProblemInstance, SnrDistribution, UtilitySpec)


def point_mass_instance(gammas, p_con, mcs=None, utility=None):
    """Instance from an (N, K) array of point-mass SNRs."""
    dists = SnrDistribution.point_mass(gammas)
    n_usr = dists.values.shape[1]
    if mcs is None:
        mcs = McsTable.qam(n_usr, 2)
    if utility is None:
        utility = UtilitySpec.goodput(n_usr)
    return ProblemInstance(mcs=mcs, utility=utility, dists=dists, p_con=p_con)


def combo_instance(dist, mcs=(1.0, 0.5, 2.0), utility=None, p_con=1.0):
    """N = K = M = 1: one SNR law, one (a, b, r) entry, one utility."""
    a, b, r = mcs
    if utility is None:
        utility = UtilitySpec.goodput(1)
    dists = SnrDistribution(dist.values.reshape(1, 1, -1),
                            dist.weights.reshape(1, 1, -1))
    return ProblemInstance(mcs=McsTable(a=[[a]], b=[[b]], r=[[r]]),
                           utility=utility, dists=dists, p_con=p_con)


def single_combo_instance(gamma=1.0, a=1.0, b=0.5, r=2.0, p_con=1.0):
    """One point mass (the hand-checkable workhorse)."""
    return combo_instance(SnrDistribution.point_mass(gamma), (a, b, r),
                          p_con=p_con)


def atom_instance(seed, n_sub=3, n_usr=3, n_mcs=3, n_atoms=8, p_con=30.0,
                  utility=None):
    """Random atom-distribution instance (exponential-ish SNR laws)."""
    rng = np.random.default_rng(seed)
    shape = (n_sub, n_usr, n_atoms)
    dists = SnrDistribution(rng.exponential(1.0, shape),
                            np.full(shape, 1.0 / n_atoms))
    if utility is None:
        utility = UtilitySpec.goodput(n_usr)
    return ProblemInstance(mcs=McsTable.qam(n_usr, n_mcs), utility=utility,
                           dists=dists, p_con=p_con)


def mcs_entry(mcs, k, m):
    """(a, b, r) of user k at MCS m, as floats."""
    return float(mcs.a[k, m]), float(mcs.b[k, m]), float(mcs.r[k, m])


# -- closed forms for point-mass SNR + goodput utility ----------------------


def closed_form_power(gamma, a, b, r, mu):
    """Root of a*b*r*gamma*exp(-b*p*gamma) = mu, or 0 above the threshold."""
    thresh = a * b * r * gamma
    if mu >= thresh:
        return 0.0
    return np.log(thresh / mu) / (b * gamma)


def closed_form_v(gamma, a, b, r, mu):
    p = closed_form_power(gamma, a, b, r, mu)
    util = (1.0 - a * np.exp(-b * p * gamma)) * r
    return mu * p - util


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
