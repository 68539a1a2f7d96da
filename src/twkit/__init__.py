"""twkit: repair, augment, analyze and plot small mixed-type tables, built
around the eleven-column Terracotta-Warrior attribute schema."""

from .schema import AttributeSpec, Schema, default_schema
from .table import (
    Table,
    class_histogram,
    inject_missing,
    load_augmented_csv,
    save_csv,
    split_stratified,
)
from .encoding import Codec, EncodedMatrix, build_codec, decode, encode, expand_mask
from .synth import SynthesisSpec, default_synthesis_spec, load_spec, synthesize_corpus
from .impute import (
    DiffReport,
    GainConfig,
    GainModel,
    evaluate_imputation,
    gain_impute_table,
    impute_gain,
    impute_mice,
    impute_sta,
    train_gain,
)
from .augment import (
    AugmentPlan,
    AugmentResult,
    CganConfig,
    TableCganModel,
    default_augment_plan,
    sample_table_cgan,
    smotenc_generate,
    train_table_cgan,
    two_stage_augment,
)
from .classify import (
    Forest,
    feature_importance,
    fit_and_score,
    gini,
    train_forest,
    train_linear_svm,
    train_logreg,
    train_mlp_classifier,
    train_tree,
)
from .metrics import Metrics, auc_rank, compute_metrics
from .analyze import (
    BoxStats,
    ContingencyTable,
    CorrelationMatrix,
    ViolinStats,
    box_stats,
    chi_square,
    contingency,
    correlation_matrix,
    cramers_v,
    group_by_class,
    kde,
)
from .render import (
    PlotSpec,
    render_box_grid,
    render_heatmap,
    render_importance_bar,
    render_violin_grid,
)
from .errors import CodecError, DataError, SchemaError, TrainingDiverged, TwkitError

__version__ = "0.1.0"
