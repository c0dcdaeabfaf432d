"""Tokenization, vocabulary, JSONL ingestion, chunking, and synthetic corpora."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
_RESERVED = ["<pad>", "<unk>", "<cls>"]

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class CorpusError(ValueError):
    pass


class Vocab:
    """Token -> id map with fixed reserved ids PAD=0, UNK=1, CLS=2."""

    def __init__(self):
        self._token_to_id = {tok: i for i, tok in enumerate(_RESERVED)}

    def __len__(self):
        return len(self._token_to_id)

    def __contains__(self, token):
        return token in self._token_to_id

    @property
    def size(self):
        return len(self._token_to_id)

    def add(self, token):
        if token not in self._token_to_id:
            self._token_to_id[token] = len(self._token_to_id)
        return self._token_to_id[token]

    def id_of(self, token):
        return self._token_to_id.get(token, UNK_ID)

    def tokens(self):
        """Non-reserved tokens in id order."""
        items = sorted(self._token_to_id.items(), key=lambda kv: kv[1])
        return [tok for tok, i in items if i >= len(_RESERVED)]

    def save(self, path):
        with open(path, "w") as f:
            for tok in self.tokens():
                f.write(tok + "\n")

    @classmethod
    def load(cls, path):
        v = cls()
        with open(path) as f:
            for line in f:
                v.add(line.rstrip("\n"))
        return v

    @classmethod
    def from_tokens(cls, tokens):
        v = cls()
        for tok in tokens:
            v.add(tok)
        return v


@dataclass(frozen=True)
class Document:
    id: str
    tokens: tuple
    labels: frozenset = frozenset()
    task: str = "unlabeled"  # multilabel | multiclass | unlabeled

    def __post_init__(self):
        if self.task == "multiclass" and len(self.labels) != 1:
            raise CorpusError(
                f"document {self.id}: multiclass requires exactly one label, got {len(self.labels)}")


@dataclass
class ChunkedDocument:
    """Fixed slot layout: n slots of T+1 token ids each, CLS prepended."""
    chunks: np.ndarray      # (n, T+1) int
    chunk_mask: np.ndarray  # (n,) bool, true for real chunks
    token_mask: np.ndarray  # (n, T+1) bool, true for CLS + real tokens
    doc_id: str = ""


def split_words(text):
    return _TOKEN_RE.findall(text.lower())


def build_vocab(texts, min_freq=1):
    """Vocabulary over tokens appearing at least `min_freq` times."""
    if min_freq < 1:
        raise CorpusError(f"min_freq must be >= 1, got {min_freq}")
    texts = list(texts)
    if not texts:
        raise CorpusError("build_vocab: empty corpus")
    counts = Counter()
    order = {}
    for text in texts:
        for w in split_words(text):
            counts[w] += 1
            if w not in order:
                order[w] = len(order)
    vocab = Vocab()
    for w in sorted(counts, key=order.get):
        if counts[w] >= min_freq:
            vocab.add(w)
    return vocab


def tokenize(text, vocab):
    return [vocab.id_of(w) for w in split_words(text)]


def chunk(doc, chunk_len, n_chunks, max_tokens):
    """Partition a document into n slots of chunk_len tokens, CLS prepended.

    Tokens beyond `max_tokens` are dropped; missing slots are padding with
    chunk_mask false.
    """
    if chunk_len < 1 or n_chunks < 1:
        raise CorpusError(f"chunk: chunk_len={chunk_len}, n_chunks={n_chunks} must be >= 1")
    if max_tokens < chunk_len:
        raise CorpusError(f"chunk: max_tokens={max_tokens} < chunk_len={chunk_len}")
    tokens = list(doc.tokens)[:max_tokens]
    chunks = np.full((n_chunks, chunk_len + 1), PAD_ID, dtype=np.int64)
    chunk_mask = np.zeros(n_chunks, dtype=bool)
    token_mask = np.zeros((n_chunks, chunk_len + 1), dtype=bool)
    n_real = min(n_chunks, (len(tokens) + chunk_len - 1) // chunk_len)
    for i in range(n_real):
        piece = tokens[i * chunk_len:(i + 1) * chunk_len]
        chunks[i, 0] = CLS_ID
        chunks[i, 1:1 + len(piece)] = piece
        chunk_mask[i] = True
        token_mask[i, 0] = True
        token_mask[i, 1:1 + len(piece)] = True
    return ChunkedDocument(chunks, chunk_mask, token_mask, doc_id=doc.id)


def unchunk(chunked):
    """Inverse of `chunk` up to truncation: unmasked non-CLS tokens in order."""
    out = []
    for i in range(chunked.chunks.shape[0]):
        if not chunked.chunk_mask[i]:
            continue
        row = chunked.chunks[i]
        keep = chunked.token_mask[i]
        out.extend(int(t) for t, k in zip(row[1:], keep[1:]) if k)
    return out


# ---------------------------------------------------------------------------
# JSONL ingestion

def load_jsonl(path):
    """One {"id", "text", "labels"} object per line, with a string text and a
    list of non-negative integer labels; order preserved. Any other line
    raises a CorpusError that names the path and the line."""
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"{path}: malformed JSON on line {lineno}: {e}") from e
            if not isinstance(obj, dict):
                raise CorpusError(f"{path}: line {lineno} is not a JSON object")
            for key in ("id", "text", "labels"):
                if key not in obj:
                    raise CorpusError(f"{path}: line {lineno} missing field '{key}'")
            if not isinstance(obj["text"], str):
                raise CorpusError(f"{path}: line {lineno} field 'text' is not a string")
            labels = obj["labels"]
            if not (isinstance(labels, list) and all(
                    type(x) is int and x >= 0 for x in labels)):  # bool is not a label
                raise CorpusError(f"{path}: line {lineno} field 'labels' is not a list "
                                  f"of non-negative integers")
            records.append(obj)
    return records


def save_jsonl(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def encode_documents(records, vocab, task="unlabeled", num_labels=None):
    """Turn raw records into Documents; unknown labels error when num_labels set."""
    docs = []
    for rec in records:
        labels = frozenset(int(x) for x in rec.get("labels", []))
        if num_labels is not None:
            bad = [x for x in labels if x >= num_labels]
            if bad:
                raise CorpusError(f"document {rec['id']}: unknown label ids {sorted(bad)}")
        toks = tuple(tokenize(rec["text"], vocab))
        docs.append(Document(id=str(rec["id"]), tokens=toks, labels=labels, task=task))
    return docs


def save_label_map(path, mapping):
    with open(path, "w") as f:
        for idx in sorted(mapping):
            f.write(f"{idx}\t{mapping[idx]}\n")


# ---------------------------------------------------------------------------
# synthetic topic-mixture corpus

@dataclass
class SyntheticSpec:
    num_docs: int = 1000
    num_topics: int = 4
    doc_len_min: int = 64
    doc_len_max: int = 160
    vocab_per_topic: int = 100
    shared_vocab: int = 100
    noise_rate: float = 0.3
    task: str = "multiclass"  # multiclass | multilabel
    # concentration of the per-document word distribution inside its topic
    # region; < 1 makes documents of the same topic lexically distinct
    doc_alpha: float = 0.3

    def validate(self):
        if self.num_topics < 2:
            raise CorpusError(f"synthetic.num_topics must be >= 2, got {self.num_topics}")
        if self.num_docs < 1:
            raise CorpusError(f"synthetic.num_docs must be >= 1, got {self.num_docs}")
        if not (1 <= self.doc_len_min <= self.doc_len_max):
            raise CorpusError(f"synthetic.doc_len_min and synthetic.doc_len_max: invalid "
                              f"range [{self.doc_len_min}, {self.doc_len_max}]")
        if self.vocab_per_topic < 1 or self.shared_vocab < 0:
            raise CorpusError(f"synthetic.vocab_per_topic must be >= 1 and synthetic.shared_vocab "
                              f">= 0, got {self.vocab_per_topic} and {self.shared_vocab}")
        if not self.doc_alpha > 0:
            raise CorpusError(f"synthetic.doc_alpha must be > 0, got {self.doc_alpha}")
        if not (0.0 <= self.noise_rate <= 1.0):
            raise CorpusError(f"synthetic.noise_rate must be in [0, 1], got {self.noise_rate}")
        if self.task not in ("multiclass", "multilabel"):
            raise CorpusError(f"synthetic.task must be multiclass or multilabel, got '{self.task}'")


def _doc_rng(seed, doc_index):
    # counter-based generator keyed per document: parallel-safe, deterministic
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) * np.uint64(1_000_003)
                                                + np.uint64(doc_index)))


def gen_synthetic(spec, seed):
    """Generate raw {"id","text","labels"} records from a topic mixture.

    Each document draws a topic (or topic pair in multilabel mode) and a
    document-specific word distribution over that topic's vocabulary
    region; `noise_rate` of positions come from the shared region.
    """
    spec.validate()
    records = []
    for i in range(spec.num_docs):
        rng = _doc_rng(seed, i)
        if spec.task == "multilabel":
            k = int(rng.integers(1, 3))
            topics = sorted(rng.choice(spec.num_topics, size=k, replace=False).tolist())
        else:
            topics = [int(rng.integers(spec.num_topics))]
        length = int(rng.integers(spec.doc_len_min, spec.doc_len_max + 1))
        # rng.choice(n, p=w) draws one rng.random() and returns its place in
        # the normalised CDF of w; building each CDF once per document gives
        # the same words without re-validating w on every draw
        cdfs = {}
        for t in topics:
            cdf = rng.dirichlet(np.full(spec.vocab_per_topic, spec.doc_alpha)).cumsum()
            cdfs[t] = cdf / cdf[-1]
        words = []
        for _ in range(length):
            if spec.shared_vocab > 0 and rng.random() < spec.noise_rate:
                j = int(rng.integers(spec.shared_vocab))
                words.append(f"sh{j}")
            else:
                t = topics[int(rng.integers(len(topics)))]
                j = int(cdfs[t].searchsorted(rng.random(), side="right"))
                words.append(f"t{t}w{j}")
        records.append({"id": f"doc{i:05d}", "text": " ".join(words), "labels": topics})
    return records

