"""Injury forecasting from GPS training-load data: ingestion, feature engineering,
class-balanced tree learning, baselines, season simulation and rule extraction."""

from .data_model import (
    InjuryRecord,
    LabeledSession,
    PlayerProfile,
    Role,
    SeasonLog,
    TrainingSession,
    WORKLOAD_FEATURES,
    assign_labels,
    parse_season,
)
from .features import (
    FEATURE_NAMES,
    TrainingTable,
    acwr,
    build_training_table,
    ewma,
    mswr,
    pi_ewma,
    rolling_mean,
)
from .generator import GeneratorConfig, PlantedRule, generate
from .learners import FeatureSubset, fit_forest, fit_logit, rfecv, tune
from .metrics import ConfusionMatrix, EvalReport, auc, metrics, stratified_split
from .pipeline import compare_forecasters, fit_forecaster, run_pipeline
from .resampling import ResamplingConfig, adasyn
from .rules import InjuryRule, extract_rules, render_handbook, rule_stats
from .simulate import CostReport, cost, feature_trace, savings, walk_forward
from .tree import DecisionTreeModel, TreeHyperParams, fit_tree, gini

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
