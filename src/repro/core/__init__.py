"""The paper's primary contribution: the MCC fault information model.

Centralized reference implementations (vectorized with numpy) of:

* unsafe-node labelling (Algorithms 1 and 4, any dimension),
* MCC component extraction,
* boundary walls with chain merging (forbidden/critical regions Q, Q'),
* the minimal-path existence conditions (Lemma 1, Theorems 1 and 2),
* the source-side detection walks.

The distributed, message-passing realization of the same pipeline lives
in :mod:`repro.distributed`; it is validated against this package.
"""

from repro.core.labelling import (
    CANT_REACH,
    FAULTY,
    SAFE,
    USELESS,
    LabelledGrid,
    label_grid,
    unsafe_mask,
)
from repro.core.components import MCC, extract_mccs
from repro.core.walls import Wall, build_walls
from repro.core.conditions import minimal_path_exists_lemma1
from repro.core.detection import detection_feasible

__all__ = [
    "SAFE",
    "FAULTY",
    "USELESS",
    "CANT_REACH",
    "LabelledGrid",
    "label_grid",
    "unsafe_mask",
    "MCC",
    "extract_mccs",
    "Wall",
    "build_walls",
    "minimal_path_exists_lemma1",
    "detection_feasible",
]
