"""vaeguard: container stability assessment and adaptive forensic publishing.

Syscall-level forensic traces are summarized into per-interval activity
vectors, a per-container variational autoencoder learns the stable
pattern, and the publisher ships either a compact latent record or the
full forensics depending on the reconstruction-error verdict.
"""

from vaeguard.events import ForensicEvent, parse_event_record, read_trace, write_trace
from vaeguard.publisher import AdaptivePublisher, PublishAction, PublishMode
from vaeguard.scaling import ActivityScaler
from vaeguard.scenarios import ScenarioConfig, gen_baseline, gen_cpuminer_scenario, gen_httpflood_scenario
from vaeguard.summarize import ActivityVector, IntervalKey, interval_stream, summarize_interval
from vaeguard.taxonomy import SyscallCategory, classify_syscall
from vaeguard.thresholds import HeuristicThreshold, KSigmaThreshold, StabilityVerdict, assess, fit_threshold_ksigma
from vaeguard.vae import LatentRecord, TrainConfig, VaeStabilityDetector, load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "ActivityScaler",
    "ActivityVector",
    "AdaptivePublisher",
    "ForensicEvent",
    "HeuristicThreshold",
    "IntervalKey",
    "KSigmaThreshold",
    "LatentRecord",
    "PublishAction",
    "PublishMode",
    "ScenarioConfig",
    "StabilityVerdict",
    "SyscallCategory",
    "TrainConfig",
    "VaeStabilityDetector",
    "assess",
    "classify_syscall",
    "fit_threshold_ksigma",
    "gen_baseline",
    "gen_cpuminer_scenario",
    "gen_httpflood_scenario",
    "interval_stream",
    "load_model",
    "parse_event_record",
    "read_trace",
    "save_model",
    "summarize_interval",
    "write_trace",
]
