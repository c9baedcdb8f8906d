"""Verification laboratory for the CCR algebra with free evolution.

Four layers: exact symbolic evaluation of the indefinite Gaussian ground
state and its modular structure (:mod:`ccrlab.heisenberg`), the non-regular
Weyl ground state with closed-form n-point functions (:mod:`ccrlab.weyl`),
Monte Carlo checks of the functional-integral representations
(:mod:`ccrlab.montecarlo`), and the discretized indefinite euclidean space
with Krein metrics and Markov projections (:mod:`ccrlab.nelson`).
Names are imported from their modules; the package re-exports none.
"""
