"""Differentially private primitive mechanisms.

These are the substrate GUPT's sample-and-aggregate core is built on:

* :mod:`repro.mechanisms.rng` — seeded randomness plumbing.
* :mod:`repro.mechanisms.laplace` — the Laplace mechanism of Dwork et al.
* :mod:`repro.mechanisms.exponential` — the exponential mechanism of
  McSherry and Talwar.
* :mod:`repro.mechanisms.percentile` — Smith's differentially private
  percentile estimator used by GUPT-loose and GUPT-helper.
* :mod:`repro.mechanisms.composition` — sequential/parallel composition
  accounting helpers.

The names below resolve lazily (see :mod:`repro._lazy`): a shard node,
which needs :mod:`repro.mechanisms.rng` only, loads no mechanism.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.mechanisms.composition": (
        "parallel_composition",
        "sequential_composition",
    ),
    "repro.mechanisms.exponential": ("ExponentialMechanism",),
    "repro.mechanisms.laplace": ("LaplaceMechanism", "laplace_noise"),
    "repro.mechanisms.percentile": ("dp_percentile", "dp_percentile_range"),
    "repro.mechanisms.rng": ("RandomSource", "as_generator"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
