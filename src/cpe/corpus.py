"""Tokenization, vocabulary, JSONL ingestion, chunking, and synthetic corpora."""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain

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
    # a Counter keeps first-appearance order, so ids follow first appearance
    counts = Counter(w for text in texts for w in split_words(text))
    vocab = Vocab()
    for w, n in counts.items():
        if n >= min_freq:
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


# ---------------------------------------------------------------------------
# JSONL ingestion

def read_lines(path):
    """(line number, text) of each line of a UTF-8 file, from 1; a line that
    does not decode raises a CorpusError naming the path and the line."""
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise CorpusError(f"{path}: line {lineno} is not UTF-8 ({e.reason} "
                                  f"at byte {e.start})") from None


def load_jsonl(path):
    """One {"id", "text", "labels"} object per line, with an id whose str()
    holds no tab, CR or LF, a string text and a list of non-negative integer
    labels; order preserved. Any other line raises a CorpusError that names
    the path and the line."""
    records = []
    for lineno, line in read_lines(path):
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
        if any(c in str(obj["id"]) for c in "\t\r\n"):  # a field of embeddings.tsv
            raise CorpusError(f"{path}: line {lineno} field 'id' holds a tab or line break")
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
    # counter-based generator keyed per document: parallel-safe, deterministic;
    # the key is taken mod 2**64 in Python integers, so any seed in [0, 2**64)
    # keys a stream without numpy's scalar overflow
    return np.random.Generator(np.random.Philox(key=(seed * 1_000_003 + doc_index) % 2**64))


class _Draws:
    """A document's Generator draws, read from its bit generator's raw 64-bit
    outputs, drawn `n` at a time with `random_raw`, as numpy would make them:

    - `random()` is `(o >> 11) * 2**-53` of the next output `o`, so
      `random() < p` is `raw() < ceil(p * 2**53) << 11`;
    - `integers(n)` for 1 <= n < 2**32 is Lemire's multiply-and-reject on a
      32-bit word: the low half of a fresh output, whose high half is kept
      for the next call, starting from the half the Generator left in the
      bit generator's state;
    - `integers(1)` draws nothing.

    The reader draws ahead and keeps the buffered half to itself, so the
    Generator draws nothing after it is made.
    """

    __slots__ = ("raw", "_half")

    def __init__(self, bit_generator, n):
        state = bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        chunks = iter(lambda: bit_generator.random_raw(n).tolist(), None)  # endless
        self.raw = chain.from_iterable(chunks).__next__  # the next raw output

    def random(self):
        return (self.raw() >> 11) * 2.0**-53

    def integers(self, n):
        if n == 1:
            return 0
        m = self._word() * n
        while m & 0xFFFFFFFF < n and m & 0xFFFFFFFF < (1 << 32) % n:  # biased: redraw
            m = self._word() * n
        return m >> 32

    def _word(self):
        half = self._half
        if half is not None:
            self._half = None
            return half
        o = self.raw()
        self._half = o >> 32
        return o & 0xFFFFFFFF


def gen_synthetic(spec, seed):
    """Generate raw {"id","text","labels"} records from a topic mixture.

    Each document draws a topic (or topic pair in multilabel mode) and a
    document-specific word distribution over that topic's vocabulary
    region; `noise_rate` of positions come from the shared region.

    The topics, the length and the word distributions come from the
    document's Generator; its words come from a `_Draws` reader over the
    same stream, which answers `random()` and `integers(n)` exactly as the
    Generator would. Two tests pin the bytes of every corpus:
    `test_matches_per_word_choice_generator` (the per-word `rng.choice`
    generator) and `test_matches_generator_calls` (the Generator-call loop
    in `tests/oracle_corpus.py`).
    """
    spec.validate()
    noise_rate, shared_vocab = spec.noise_rate, spec.shared_vocab
    noise_cut = math.ceil(noise_rate * 2**53) << 11  # raw() < noise_cut: random() < noise_rate
    shared = [f"sh{j}" for j in range(shared_vocab)]
    names = [[f"t{t}w{j}" for j in range(spec.vocab_per_topic)] for t in range(spec.num_topics)]
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
        regions = []
        for t in topics:
            cdf = rng.dirichlet(np.full(spec.vocab_per_topic, spec.doc_alpha)).cumsum()
            regions.append(((cdf / cdf[-1]).tolist(), names[t]))
        # a word takes at most two outputs, unless Lemire's rejection redraws
        draws = _Draws(rng.bit_generator, 2 * length)
        raw, random, integers = draws.raw, draws.random, draws.integers
        # both shortcuts keep the stream draw for draw: integers(1) returns 0
        # without drawing, so a one-topic document skips the call, and
        # bisect_right on the same float64 values is searchsorted(side="right")
        n_regions = len(regions)
        words = []
        for _ in range(length):
            if shared and raw() < noise_cut:
                words.append(shared[integers(shared_vocab)])
            else:
                cdf, topic_names = regions[integers(n_regions) if n_regions > 1 else 0]
                words.append(topic_names[bisect_right(cdf, random())])
        records.append({"id": f"doc{i:05d}", "text": " ".join(words), "labels": topics})
    return records
