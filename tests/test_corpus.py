import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpe.corpus import (CLS_ID, PAD_ID, UNK_ID, CorpusError, Document, _doc_rng,
                        SyntheticSpec, build_vocab, chunk, encode_documents,
                        gen_synthetic, load_jsonl, save_jsonl, tokenize,
                        unchunk, Vocab)


class TestVocab:
    def test_frequency_threshold(self):
        v = build_vocab(["a b", "a c"], min_freq=2)
        assert "a" in v and "b" not in v and "c" not in v

    def test_size_counts_reserved(self):
        v = build_vocab(["x"], min_freq=1)
        assert v.size == 4  # PAD, UNK, CLS, x

    def test_empty_corpus_errors(self):
        with pytest.raises(CorpusError, match="empty"):
            build_vocab([], min_freq=1)

    def test_determinism(self):
        texts = ["the quick brown fox", "the lazy dog", "quick quick"]
        v1 = build_vocab(texts, min_freq=1)
        v2 = build_vocab(texts, min_freq=1)
        assert v1._token_to_id == v2._token_to_id

    def test_reserved_ids_fixed(self):
        v = build_vocab(["a"], min_freq=1)
        assert (PAD_ID, UNK_ID, CLS_ID) == (0, 1, 2)
        assert v.id_of("a") >= 3

    def test_save_load_roundtrip(self, tmp_path):
        v = build_vocab(["alpha beta gamma"], min_freq=1)
        path = tmp_path / "vocab.txt"
        v.save(path)
        v2 = Vocab.load(path)
        assert v._token_to_id == v2._token_to_id


class TestTokenize:
    def test_lowercase_lookup(self):
        v = build_vocab(["a b"])
        assert tokenize("A b", v) == [v.id_of("a"), v.id_of("b")]

    def test_oov_maps_to_unk(self):
        v = build_vocab(["a"])
        assert tokenize("zzz", v) == [UNK_ID]

    def test_empty_text(self):
        v = build_vocab(["a"])
        assert tokenize("", v) == []

    def test_punctuation_split(self):
        v = build_vocab(["foo bar"])
        assert tokenize("foo,bar!  foo", v) == [v.id_of("foo"), v.id_of("bar"), v.id_of("foo")]


def _doc(n_tokens):
    return Document(id="d", tokens=tuple(range(3, 3 + n_tokens)))


class TestChunk:
    def test_partial_last_chunk(self):
        cd = chunk(_doc(300), chunk_len=128, n_chunks=32, max_tokens=4096)
        assert cd.chunk_mask.sum() == 3
        assert cd.token_mask[2].sum() == 1 + (300 - 256)  # CLS + 44 real tokens
        assert cd.chunks.shape == (32, 129)

    def test_truncation_at_cap(self):
        cd = chunk(_doc(5000), chunk_len=128, n_chunks=32, max_tokens=4096)
        assert cd.chunk_mask.sum() == 32
        assert cd.token_mask.sum() == 32 * 129  # all slots full
        assert unchunk(cd) == list(range(3, 3 + 4096))

    def test_short_doc_padding(self):
        cd = chunk(_doc(10), chunk_len=128, n_chunks=16, max_tokens=4096)
        assert cd.chunk_mask.sum() == 1
        assert (cd.chunks[0] == PAD_ID).sum() == 118
        assert not cd.chunk_mask[1:].any()

    def test_real_chunks_start_with_cls(self):
        cd = chunk(_doc(200), chunk_len=64, n_chunks=8, max_tokens=512)
        for i in np.flatnonzero(cd.chunk_mask):
            assert cd.chunks[i, 0] == CLS_ID
        for i in np.flatnonzero(~cd.chunk_mask):
            assert (cd.chunks[i] == PAD_ID).all()

    @given(n_tokens=st.integers(1, 600), chunk_len=st.integers(1, 64),
           n_chunks=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_mask_count(self, n_tokens, chunk_len, n_chunks):
        cap = chunk_len * n_chunks
        doc = _doc(n_tokens)
        cd = chunk(doc, chunk_len, n_chunks, cap)
        truncated = list(doc.tokens)[:cap]
        assert unchunk(cd) == truncated
        expected = min(n_chunks, -(-min(n_tokens, cap) // chunk_len))
        assert cd.chunk_mask.sum() == expected


class TestJsonl:
    def test_basic_record(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id":"1","text":"a b","labels":[0]}\n')
        records = load_jsonl(p)
        v = build_vocab([r["text"] for r in records])
        docs = encode_documents(records, v, task="multiclass")
        assert docs[0].id == "1" and len(docs[0].tokens) == 2 and docs[0].labels == {0}

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id":"1","text":"a","labels":[]}\n'
                     '{"id":"2","text":"b","labels":[]}\n'
                     '{oops\n')
        with pytest.raises(CorpusError, match="line 3"):
            load_jsonl(p)

    @pytest.mark.parametrize("line,named", [
        ("5", "not a JSON object"),
        ('["a", "b"]', "not a JSON object"),
        ('"text"', "not a JSON object"),
        ("null", "not a JSON object"),
        ('{"id":"2","text":7,"labels":[]}', "'text'"),
        ('{"id":"2","text":null,"labels":[]}', "'text'"),
        ('{"id":"2","text":"b","labels":3}', "'labels'"),
        ('{"id":"2","text":"b","labels":"01"}', "'labels'"),
        ('{"id":"2","text":"b","labels":[-1]}', "'labels'"),
        ('{"id":"2","text":"b","labels":[1.0]}', "'labels'"),
        ('{"id":"2","text":"b","labels":[true]}', "'labels'"),
        ('{"id":"2","text":"b","labels":[[0]]}', "'labels'"),
    ])
    def test_record_of_the_wrong_type_names_path_and_line(self, tmp_path, line, named):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id":"1","text":"a","labels":[0, 2]}\n' + line + "\n")
        with pytest.raises(CorpusError, match=f"{re.escape(str(p))}: line 2 .*{named}"):
            load_jsonl(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        assert load_jsonl(p) == []

    def test_unknown_label_in_eval_mode_errors(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id":"1","text":"a","labels":[7]}\n')
        records = load_jsonl(p)
        v = build_vocab(["a"])
        with pytest.raises(CorpusError, match="unknown label"):
            encode_documents(records, v, num_labels=4)

    def test_save_load_preserves_order(self, tmp_path):
        recs = [{"id": f"d{i}", "text": f"tok{i}", "labels": [i % 2]} for i in range(5)]
        p = tmp_path / "c.jsonl"
        save_jsonl(p, recs)
        assert [r["id"] for r in load_jsonl(p)] == [f"d{i}" for i in range(5)]


class TestSynthetic:
    SPEC = SyntheticSpec(num_docs=400, num_topics=4, doc_len_min=20, doc_len_max=40,
                         vocab_per_topic=30, shared_vocab=20, noise_rate=0.2)

    def test_determinism(self):
        a = gen_synthetic(self.SPEC, seed=7)
        b = gen_synthetic(self.SPEC, seed=7)
        assert json.dumps(a) == json.dumps(b)

    def test_different_seeds_differ(self):
        a = gen_synthetic(self.SPEC, seed=7)
        b = gen_synthetic(self.SPEC, seed=8)
        assert json.dumps(a) != json.dumps(b)

    def test_zero_noise_stays_in_topic_region(self):
        spec = SyntheticSpec(num_docs=50, num_topics=3, doc_len_min=30, doc_len_max=30,
                             vocab_per_topic=10, shared_vocab=10, noise_rate=0.0)
        for rec in gen_synthetic(spec, seed=3):
            topic = rec["labels"][0]
            for w in rec["text"].split():
                assert w.startswith(f"t{topic}w")

    def test_topic_counts_near_uniform(self):
        # binomial(400, 1/4): mean 100, sigma ~ 8.66; allow 4 sigma
        recs = gen_synthetic(self.SPEC, seed=11)
        counts = np.bincount([r["labels"][0] for r in recs], minlength=4)
        assert np.all(np.abs(counts - 100) < 4 * np.sqrt(400 * 0.25 * 0.75))

    def test_multilabel_mode_topic_sets(self):
        spec = SyntheticSpec(num_docs=60, num_topics=5, doc_len_min=20, doc_len_max=30,
                             vocab_per_topic=10, shared_vocab=5, noise_rate=0.1,
                             task="multilabel")
        recs = gen_synthetic(spec, seed=2)
        sizes = {len(r["labels"]) for r in recs}
        assert sizes <= {1, 2} and 2 in sizes

    @pytest.mark.parametrize("spec", [
        SPEC,
        SyntheticSpec(num_docs=150, num_topics=5, doc_len_min=20, doc_len_max=60,
                      vocab_per_topic=25, shared_vocab=10, noise_rate=0.3,
                      task="multilabel"),
        SyntheticSpec(num_docs=3, doc_len_min=1397, doc_len_max=1397),
    ])
    def test_matches_per_word_choice_generator(self, spec):
        # the generator before topic words were drawn from a per-document CDF
        def per_word_choice(spec, seed):
            records = []
            for i in range(spec.num_docs):
                rng = _doc_rng(seed, i)
                if spec.task == "multilabel":
                    k = int(rng.integers(1, 3))
                    topics = sorted(rng.choice(spec.num_topics, size=k, replace=False).tolist())
                else:
                    topics = [int(rng.integers(spec.num_topics))]
                length = int(rng.integers(spec.doc_len_min, spec.doc_len_max + 1))
                weights = {t: rng.dirichlet(np.full(spec.vocab_per_topic, spec.doc_alpha))
                           for t in topics}
                words = []
                for _ in range(length):
                    if spec.shared_vocab > 0 and rng.random() < spec.noise_rate:
                        words.append(f"sh{int(rng.integers(spec.shared_vocab))}")
                    else:
                        t = topics[int(rng.integers(len(topics)))]
                        j = int(rng.choice(spec.vocab_per_topic, p=weights[t]))
                        words.append(f"t{t}w{j}")
                records.append({"id": f"doc{i:05d}", "text": " ".join(words),
                                "labels": topics})
            return records

        for seed in (0, 7):
            assert json.dumps(gen_synthetic(spec, seed)) == \
                json.dumps(per_word_choice(spec, seed))

    def test_invalid_spec_errors(self):
        with pytest.raises(CorpusError, match="num_topics"):
            gen_synthetic(SyntheticSpec(num_topics=1), seed=0)
        with pytest.raises(CorpusError, match="noise_rate"):
            gen_synthetic(SyntheticSpec(noise_rate=1.5), seed=0)


def test_multiclass_document_requires_single_label():
    with pytest.raises(CorpusError, match="exactly one"):
        Document(id="x", tokens=(3,), labels=frozenset({0, 1}), task="multiclass")
