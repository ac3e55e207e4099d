"""Synthetic datasets calibrated to the paper's benchmarks + utilities.

* :data:`PROFILES` / :func:`load` / :func:`generate` — sift/deep/gist/
  bigann/ukbench stand-ins (see ``docs/api.md``, "Paper experiments",
  for the substitution).
* :func:`lid_mle` / :func:`lid_two_nn` — LID estimators (Table 3).
* :func:`compute_ground_truth` — exact top-k for recall evaluation.
"""

from .ground_truth import GroundTruth, compute_ground_truth
from .lid import lid_mle, lid_two_nn
from .synthetic import PROFILES, Dataset, DatasetProfile, generate, load

__all__ = [
    "PROFILES",
    "Dataset",
    "DatasetProfile",
    "generate",
    "load",
    "GroundTruth",
    "compute_ground_truth",
    "lid_mle",
    "lid_two_nn",
]
