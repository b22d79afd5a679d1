"""Context recognition from smartphone and smartwatch sensors.

Per-sensor feature extraction, balanced linear classifiers, three sensor
fusion schemes, subject-partitioned evaluation with random baselines, label
cleaning, and user personalization.
"""

__version__ = "0.1.0"

from .model import (
    AudioMfccSeries,
    Example,
    FEATURE_DIMS,
    LabelAssignment,
    LocationSeries,
    LocationUpdate,
    PhoneStateSnapshot,
    SENSORS,
    TriaxialSeries,
    canonical_label_name,
    validate_example,
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
from .labels import (
    PlaceAnchor,
    adjust_label_by_colabels,
    adjust_label_by_location,
    apply_label_adjustments,
    parse_anchor_file,
)
from .classifier import (
    LinearModel,
    SensorModel,
    Standardizer,
    fit_single_sensor_model,
    fit_standardizer,
    predict_proba_features,
    select_cost,
    train_linear,
)
from .fusion import (
    LateFusionLearned,
    early_fusion,
    late_fusion_average,
    late_fusion_learned,
    multiclass_one_vs_rest,
)
from .evaluation import (
    FoldPartition,
    MetricCounts,
    MetricReport,
    compute_metrics,
    confusion_matrix,
    cross_validate,
    partition_folds,
    random_baseline_p99,
)
from .personalization import personalize, split_user_timeline
