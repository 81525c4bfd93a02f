"""Cross-query optimization: marginal-ε reuse.

Two composable layers on top of the GUPT runtime, motivated by the
service model of §5 — many analysts, heavy repetition:

* :mod:`repro.optimizer.answer_cache` — a noisy-answer cache that
  replays a previously *published* release for a bit-identical repeat
  query at zero marginal ε (post-processing of an already-released
  value is free).
* :mod:`repro.optimizer.svt` — a correct sparse-vector-technique
  session (Alg. 1 of Chen & Machanavajjhala) so analysts can probe many
  candidate queries while paying ε only for the few that clear the
  threshold.  The *broken* SVT variants from that paper live in
  :mod:`repro.attacks.svt_variants`, deliberately out of reach of any
  service path, as attack-harness regressions.
"""

from repro.optimizer.answer_cache import AnswerCache, AnswerKey, build_answer_key
from repro.optimizer.svt import SparseVector

__all__ = [
    "AnswerCache",
    "AnswerKey",
    "SparseVector",
    "build_answer_key",
]
