"""Multi-reference evaluation toolkit for natural language generation.

Generate reference candidates with an LLM endpoint, keep the diverse ones,
score system outputs with multi-reference n-gram metrics (or max-combine
external per-reference score matrices), and meta-evaluate metrics against
human judgments.
"""

from .combine import (
    CombinePolicy,
    combine_matrix,
    combine_row,
    system_score,
    system_scores,
)
from .corpus_io import EvalCorpus, Segment, load_corpus, merge_references
from .diversity import (
    CandidateSet,
    DiversityReport,
    distinct_n,
    select_diverse,
    self_bleu,
    unique_tokens,
)
from .errors import (
    CorpusFormatError,
    DegenerateDataError,
    MalformedResponseError,
    MultirefError,
    TransportError,
)
from .metaeval import (
    HumanJudgment,
    LeakageGapReport,
    MetaEvalReport,
    kendall_tau,
    leakage_gap,
    meta_evaluate,
    meta_evaluate_all,
    pairwise_accuracy,
    pearson,
    segment_kendall,
    spearman,
)
from .metrics import (
    BleuConfig,
    CorpusStats,
    MetricScore,
    MultiRefScorer,
    bleu_corpus,
    bleu_sentence,
    chrf_corpus,
    chrf_sentence,
    rouge_l,
    rouge_n,
    score_corpus,
    spbleu_corpus,
)
from .refgen import (
    GenerationConfig,
    GenerationRecord,
    HttpChatTransport,
    MockTransport,
    PromptTemplate,
    build_prompt,
    generate_references,
    parse_candidates,
)
from .textproc import (
    SubwordVocab,
    load_subword_vocab,
    tokenize_chars,
    tokenize_subwords,
    tokenize_words,
)

__version__ = "0.1.0"

__all__ = [
    "BleuConfig",
    "CandidateSet",
    "CombinePolicy",
    "CorpusFormatError",
    "CorpusStats",
    "DegenerateDataError",
    "DiversityReport",
    "EvalCorpus",
    "GenerationConfig",
    "GenerationRecord",
    "HttpChatTransport",
    "HumanJudgment",
    "LeakageGapReport",
    "MalformedResponseError",
    "MetaEvalReport",
    "MetricScore",
    "MockTransport",
    "MultiRefScorer",
    "MultirefError",
    "PromptTemplate",
    "Segment",
    "SubwordVocab",
    "TransportError",
    "bleu_corpus",
    "bleu_sentence",
    "build_prompt",
    "chrf_corpus",
    "chrf_sentence",
    "combine_matrix",
    "combine_row",
    "distinct_n",
    "generate_references",
    "kendall_tau",
    "leakage_gap",
    "load_corpus",
    "load_subword_vocab",
    "merge_references",
    "meta_evaluate",
    "meta_evaluate_all",
    "pairwise_accuracy",
    "parse_candidates",
    "pearson",
    "rouge_l",
    "rouge_n",
    "score_corpus",
    "segment_kendall",
    "select_diverse",
    "self_bleu",
    "spbleu_corpus",
    "spearman",
    "system_score",
    "system_scores",
    "tokenize_chars",
    "tokenize_subwords",
    "tokenize_words",
    "unique_tokens",
]
