"""Transferable phoneme embeddings for few-shot cross-lingual adaptation.

Pipeline: synthetic multilingual corpora with ground-truth prototypes ->
phoneme query extraction -> codebook attention (learnable Keys/Codes) ->
episodic training with a linear frame reconstructor -> few-shot adaptation
against a random-init baseline -> phoneme mapping discovery from attention
weights.
"""

__version__ = "0.1.0"

from .adaptation import AdaptConfig, FewShotTask, TaskSpec
from .codebook import (
    AttentionRecord,
    CodebookConfig,
    CodebookParams,
    EmbeddingTable,
)
from .datamodel import (
    CorpusManifest,
    FeatureSpec,
    LanguagePhonemeSet,
    Utterance,
)
from .queries import QueryMatrix
from .synth import SynthConfig, SynthLanguage
from .trainer import TrainConfig

__all__ = [
    "AdaptConfig",
    "AttentionRecord",
    "CodebookConfig",
    "CodebookParams",
    "CorpusManifest",
    "EmbeddingTable",
    "FeatureSpec",
    "FewShotTask",
    "LanguagePhonemeSet",
    "QueryMatrix",
    "SynthConfig",
    "SynthLanguage",
    "TaskSpec",
    "TrainConfig",
    "Utterance",
    "__version__",
]
