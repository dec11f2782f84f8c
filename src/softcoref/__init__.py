"""Coreference resolution with probabilistic soft clusters.

A mention-ranking model scores antecedent candidates; a triangular
recursion turns its link probabilities into mention-to-entity membership
probabilities; differentiable relaxations of the B-cubed and LEA
evaluation metrics (sharpened by a temperature softmax) can then be
optimized directly, alongside softmax-margin heuristic losses.  Exact
MUC / B-cubed / CEAF / BLANC / LEA scorers, AdaGrad training, synthetic
corpora, CoNLL key-file I/O and error analysis round out the toolkit.
"""

from .analysis import (ErrorBreakdown, MetricReport, corpus_report,
                       error_breakdown, evaluate_corpus, format_breakdown,
                       format_report, report_csv)
from .clustering import (antecedents_to_clusters, decode_argmax,
                         decode_clusters, validate_antecedent_vector)
from .corpus import (MENTION_TYPES, Clustering, ConllDocument, Document,
                     Mention, SyntheticConfig, clusters_from_entity_ids,
                     generate_synthetic, load_corpus, parse_conll_documents,
                     save_corpus, write_conll_responses)
from .errors import (ConfigError, FormatError, InputError, SoftcorefError,
                     TrainingError)
from .membership import (LinkDistribution, MembershipMatrix, membership,
                         tempered_membership)
from .metrics import (PRF, BlancCounts, MetricCounts, b_cubed, b_cubed_counts,
                      blanc, blanc_counts, ceaf_e, ceaf_e_counts, ceaf_m,
                      ceaf_m_counts, conll_average, f_beta, lea, lea_counts,
                      muc, muc_counts)
from .model import (LOSS_KINDS, CostConfig, ModelParams, document_loss,
                    document_loss_and_grad, l1_norm, link_probabilities,
                    predict_antecedents, score_pairs)
from .optim import (BETA_GRID, EpochRecord, TrainConfig, TrainHistory,
                    adagrad_step, beta_sweep, grad_check, train)
from .relaxed import GUARD_EPS, RelaxedScore, relaxed_b3, relaxed_lea

__version__ = "0.1.0"

__all__ = [
    "BETA_GRID", "BlancCounts", "Clustering", "ConfigError", "ConllDocument",
    "CostConfig", "Document", "EpochRecord", "ErrorBreakdown", "FormatError",
    "GUARD_EPS", "InputError", "LOSS_KINDS", "LinkDistribution",
    "MENTION_TYPES", "MembershipMatrix", "Mention", "MetricCounts",
    "MetricReport", "ModelParams", "PRF", "RelaxedScore", "SoftcorefError",
    "SyntheticConfig", "TrainConfig", "TrainHistory", "TrainingError",
    "adagrad_step", "antecedents_to_clusters", "b_cubed", "b_cubed_counts",
    "beta_sweep", "blanc", "blanc_counts", "ceaf_e", "ceaf_e_counts",
    "ceaf_m", "ceaf_m_counts", "clusters_from_entity_ids", "conll_average",
    "corpus_report", "decode_argmax", "decode_clusters", "document_loss",
    "document_loss_and_grad", "error_breakdown", "evaluate_corpus", "f_beta",
    "format_breakdown", "format_report", "generate_synthetic", "grad_check",
    "l1_norm", "lea", "lea_counts", "link_probabilities", "load_corpus",
    "membership", "muc", "muc_counts", "parse_conll_documents",
    "predict_antecedents", "relaxed_b3", "relaxed_lea", "report_csv",
    "save_corpus", "score_pairs", "tempered_membership", "train",
    "validate_antecedent_vector", "write_conll_responses",
]
