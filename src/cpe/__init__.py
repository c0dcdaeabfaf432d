"""Chunk-prediction contrastive pretraining for long-document encoders."""

from .corpus import (CLS_ID, PAD_ID, UNK_ID, ChunkedDocument, Document,
                     SyntheticSpec, Vocab, build_vocab, chunk, gen_synthetic,
                     load_jsonl, tokenize)
from .encoder import EncoderConfig, encode_chunk, init_params
from .pooling import pool_max, pool_mean
from .training import PretrainConfig, mnr_loss, pretrain, sample_pair_hier, sample_pair_long
from .classifier import ClassifierConfig, predict_batch, train_classifier
from .metrics import dbscan, export_embeddings, f1_scores, homogeneity_completeness
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
