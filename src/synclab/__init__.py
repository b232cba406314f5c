"""synclab: a deterministic laboratory for sensor-network time synchronization.

Simulates chain networks of drifting, quantized hardware clocks under four
synchronization schemes, with the estimation workload either at the head
(beaconless reverse one-way reporting) or at the nodes (beacon flooding),
and reduces runs to message counts, energy, and measurement-time accuracy.
"""

from .clock import (
    ClockConfig,
    ClockError,
    ClockParams,
    DriftModel,
    HardwareClock,
    NS_PER_MS,
    NS_PER_S,
    NS_PER_US,
    SimTime,
    TICK_1US_NS,
    TICK_32KHZ_NS,
    TimeRegressionError,
    draw_clock_params,
    seconds,
)
from .precision import (
    CHOP,
    Float32Emu,
    MACHINE_EPS32,
    NEAREST,
    PrecisionLoss,
    PrecisionOverflowError,
    decompose,
    empirical_loss,
    psi_error,
    round32,
)
from .estimators import (
    CUMULATIVE_RATIO,
    ESTIMATOR_METHODS,
    EstimationError,
    HeadEstimator,
    InsufficientDataError,
    RegressionWindow,
    SingularSystemError,
    TWO_POINT,
    TimestampPair,
    WINDOW_LSQ,
    cumulative_params,
    cumulative_ratio,
    default_window,
    interpolate_params,
    logical_time,
    lsq_fit,
    multihop_from_head,
    multihop_to_head,
    translate_child_to_parent,
)
from .protocol import (
    JitterModel,
    MeasurementRecord,
    Message,
    NodeState,
    RadioConfig,
    SCHEMES,
    default_radio_schedule,
)
from .simnet import (
    Engine,
    LinkConfig,
    NodeSpec,
    Topology,
    build_chain,
)
from .trace import MeasurementOutcome, RunTrace
from .config import (
    ConfigError,
    EnergyModel,
    RunConfig,
    energy_comparison_config,
    load_config,
    multihop_accuracy_config,
    parse_config,
    singlehop_accuracy_config,
    table1_config,
)
from .analysis import (
    AccuracyReport,
    EnergyLedger,
    ErrorStats,
    NodeEnergy,
    accuracy_metrics,
    count_conventional,
    count_proposed,
    energy_from_trace,
    replay,
    run_config,
    sensor_totals,
    summarize_trace,
    sweep,
    table1_counts,
)

__version__ = "0.1.0"
