"""Behavioral simulator for mixed-signal crossbar neural networks.

Layers: device physics (device), array composition (crossbar), forming and
write-verify programming (progtune), analog periphery (neuron), the
two-layer classifier (network), training schemes (training), datasets and
scoring (bench), and experiment recipes plus sweeps (harness).
"""

# numpy loads these on first use, and every run uses both: seeded
# generators, and np.median, whose NaN check imports numpy.ma.  Loading
# them with the package keeps that one-off cost out of the first run.
import numpy.ma
import numpy.random

from .device import (
    DefectKind,
    DeviceSpec,
    differential_conductance,
    effective_conductance,
    pulse_delta,
)
from .crossbar import (
    Crossbar,
    build_crossbar,
    inject_cell_defects,
    measure_maps,
    pulse_all,
    sample_cells,
    vary_bounds,
    vmm_currents_batch,
    write_pulse,
)
from .progtune import (
    CellTuneResult,
    FormingConfig,
    FormingReport,
    TuneConfig,
    TuningReport,
    diagnose_defects,
    extract_thresholds,
    form_array,
    image_to_targets,
    import_conductance_map,
    tune_cell,
)
from .neuron import (
    CompensationParams,
    NeuronBank,
    NeuronFault,
    NeuronParams,
    bank_outputs,
    compensated_output,
    inject_neuron_faults,
    make_bank,
    neuron_out,
    vary_swing,
)
from .network import (
    Network,
    NetworkConfig,
    assemble,
    classify,
    evaluate,
    forward,
)
from .training import (
    InSituConfig,
    InSituState,
    Loss,
    Scheme,
    TrainHyper,
    TrainingReport,
    insitu_epoch,
    run_schemes,
    train_defect_aware,
)
from .bench import (
    Dataset,
    letter_dataset,
    load_mnist,
    save_idx,
    score,
    synthetic_digits,
)
from .harness import (
    ExperimentConfig,
    SweepReport,
    config_from_dict,
    config_hash,
    default_config,
    emit_plotdata,
    run_recipe,
    run_sweep,
    write_sweep_outputs,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DataMissingError,
    DimensionError,
    DivergenceError,
    FormingRequiredError,
    MeasurementError,
    ReadRegimeError,
    SimulationError,
    SingularityError,
)

__version__ = "0.1.0"
