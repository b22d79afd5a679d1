"""Context recognition from smartphone and smartwatch sensors.

Per-sensor feature extraction, balanced linear classifiers, three sensor
fusion schemes, subject-partitioned evaluation with random baselines, and
user personalization.
"""

__version__ = "0.1.0"

from .model import (
    AudioMfccSeries,
    Example,
    FEATURE_DIMS,
    LabelAssignment,
    LocationSeries,
    PhoneStateSnapshot,
    SENSORS,
    TriaxialSeries,
    canonical_label_name,
)
from .data import FeatureStore
from .features import (
    axis_statistics,
    extract_location_features,
    extract_motion_features,
    extract_phone_state_features,
    extract_watch_features,
    magnitude_series,
    scalar_series_features,
)
from .audio import compute_mfcc, extract_audio_features
from .classifier import (
    LinearModel,
    SensorModel,
    Standardizer,
    fit_standardizer,
    predict_proba_features,
    select_cost,
    train_linear,
)
from .fusion import (
    LateFusionLearned,
    late_fusion_average,
    late_fusion_learned,
)
from .evaluation import (
    FoldPartition,
    MetricCounts,
    MetricReport,
    compute_metrics,
    cross_validate,
    partition_folds,
)
from .personalization import personalize, split_user_timeline
