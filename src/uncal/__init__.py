"""Toolkit for executable uncertainty interfaces over recorded model traces.

Modules by concern: `trajspace` (exact tilted-policy simulation over every
trajectory space of a file as one flat column batch), `rewards`
(answer matching and the scoring of a prediction table into columns),
`calib` (calibration metrics and the error taxonomy), `recal` (temperature
scaling), `probe` (hidden-state wrongness probe), `ragctl`
(retrieval-trigger simulation), `reprgeo` (representation analytics),
`optim` (the minimizer every fit shares: global and adaptive temperature
scaling and the probe), `jsonio` and `matio` (file formats; every JSON
Lines load yields one column table, a dict from field to list, and a
rewrite replaces some of its columns), and `cli` (the `uncal` command, from
which every report is produced; it scores each input once and hands the
fits its columns).
"""

__version__ = "0.1.0"

import os as _os
from importlib import resources as _resources

# One BLAS thread, set before any submodule imports numpy: a float64 product
# split over more threads sums in another order and changes the last bits of
# `repr` outputs. A process that imported numpy before `uncal` keeps its own
# thread count.
_os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def fixture_path(name: str):
    """Filesystem path of a bundled fixture file (context-manager free for
    installed wheels backed by real files)."""
    return _resources.files(__name__) / "fixtures" / name
