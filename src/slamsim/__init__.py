"""slamsim: deterministic discrete-event simulation of mobile SoC
architectures running a visual-inertial SLAM pipeline."""

from .bank import BankState, FeatureBankController, ProtocolError
from .engine import Engine, Event, EventKind, SchedulingError, ms_to_ns, s_to_ns
from .kernel import (CameraFrame, CircleTrajectory, FeatureBlock, ImuModel, ImuSample,
                     LandmarkField, Pose, StationaryTrajectory, WorldMap,
                     extend_map, extract_features, propagate, sample_imu, update_pose)
from .pipeline import Simulation
from .report import (MetricsReport, audit_trace, build_report, load_trace,
                     run_scenario, write_trace)
from .scenario import (VARIANTS, ArchVariant, Handoff, Ingest, ScenarioConfig, VariantSpec,
                       preset)
from .soc import (ComputeUnitSpec, ConfigError, LatencyTable, MemoryPath, PowerCalibration,
                  PowerLedger, SocConfig, Stage, UnitKind, task_energy_mj)

__version__ = "0.1.0"
