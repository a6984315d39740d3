"""Four-tier suicidal-ideation risk classifier built on plain numpy.

Pipeline: corpus loading -> deterministic text cleaning -> TF-IDF weak
labeling -> embedding -> LSTM / attention / CNN stack with hand-written
backpropagation -> Adam training -> macro-averaged evaluation, plus an SVM
baseline, an ablation suite, binary model files, and a batch CLI.
"""

__version__ = "0.1.0"
