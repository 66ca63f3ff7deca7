"""Behavioral simulator for mixed-signal crossbar neural networks.

Layers: device physics (device), array composition (crossbar), forming and
write-verify programming (progtune), analog periphery (neuron), the
two-layer classifier (network), training schemes (training), datasets and
scoring (bench), and experiment recipes plus sweeps (harness).  The package
re-exports none of them: callers import the layer modules, e.g.
``from xbarnet import harness``.
"""

# numpy loads these on first use, and every run uses both: seeded
# generators, and np.median, whose NaN check imports numpy.ma.  Loading
# them with the package keeps that one-off cost out of the first run.
import numpy.ma
import numpy.random

__version__ = "0.1.0"
