"""Behavioral simulator for mixed-signal crossbar neural networks.

Layers: device physics (device), array composition (crossbar), forming and
write-verify programming (progtune), analog periphery (neuron), the
two-layer classifier (network), training schemes (training), datasets and
scoring (bench), and experiment recipes plus sweeps (harness).
"""

from .device import (
    DefectKind,
    DeviceSpec,
    FormingMode,
    MemristorState,
    apply_pulse,
    differential_conductance,
    effective_conductance,
    extract_thresholds,
    pulse_delta,
    read_current,
    sample_device,
)
from .crossbar import (
    Crossbar,
    DefectMap,
    build_crossbar,
    inject_cell_defects,
    map_to_csv,
    measure_maps,
    pulse_all,
    vary_bounds,
    vmm_currents,
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
    form_array,
    image_to_targets,
    import_conductance_map,
    tune_cell,
)
from .neuron import (
    CompensationParams,
    FixedResistor,
    NeuronBank,
    NeuronFault,
    NeuronParams,
    bank_outputs,
    compensated_output,
    feedback_conductance,
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
    map_weights,
)
from .training import (
    InSituConfig,
    InSituState,
    Loss,
    Scheme,
    TrainHyper,
    TrainingReport,
    import_weights,
    insitu_epoch,
    run_scheme,
    train_defect_aware,
)
from .bench import (
    Dataset,
    ScoreResult,
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
