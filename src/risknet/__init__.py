"""Four-tier suicidal-ideation risk classifier built on plain numpy.

Pipeline: corpus loading -> deterministic text cleaning -> TF-IDF weak
labeling -> embedding -> LSTM / attention / CNN stack with hand-written
backpropagation -> Adam training -> macro-averaged evaluation, plus an SVM
baseline, an ablation suite, binary model files, and a batch CLI.
"""

__version__ = "0.1.0"

from .corpus import Document, Post, RiskLabel, load_posts, save_posts
from .embed import EmbeddingMatrix, Vocabulary, build_vocab, encode, load_embeddings
from .metrics import Metrics, compute_metrics
from .model import Model, ModelConfig, ModelParams, init_params
from .modelio import load_model, save_model
from .synth import generate_corpus
from .textprep import clean, preprocess
from .train import Adam, History, TrainConfig, evaluate, fit, sparse_cce
from .weaklabel import Thresholds, assign_label, calibrate_thresholds, post_score, tfidf_weights

__all__ = [
    "Adam",
    "Document",
    "EmbeddingMatrix",
    "History",
    "Metrics",
    "Model",
    "ModelConfig",
    "ModelParams",
    "Post",
    "RiskLabel",
    "Thresholds",
    "TrainConfig",
    "Vocabulary",
    "assign_label",
    "build_vocab",
    "calibrate_thresholds",
    "clean",
    "compute_metrics",
    "encode",
    "evaluate",
    "fit",
    "generate_corpus",
    "init_params",
    "load_embeddings",
    "load_model",
    "load_posts",
    "post_score",
    "preprocess",
    "save_model",
    "save_posts",
    "sparse_cce",
    "tfidf_weights",
    "__version__",
]
