"""CLI end-to-end: subcommands, trace schema, bench report invariants."""

import json
import re
import struct

import pytest

from kvfocus import bench, cli
from kvfocus.bench import MODES, score_answer
from kvfocus.cache_store import CACHE_FRAME, CacheStore
from kvfocus.cli import main
from kvfocus.focus import STRATEGIES, PruningSchedule
from kvfocus.model import Model, make_config, save_weights
from kvfocus.retrieval import load_index, search
from kvfocus.tokenizer import ByteTokenizer

SMALL_MODEL_FLAGS = [
    "--num-layers", "2", "--num-heads", "2", "--head-dim", "8",
    "--max-position", "128", "--seed", "7",
]
# run and bench answer with the model build-cache wrote into the store
RUN_FLAGS = ["--query-reserve", "48"]

CORPUS = [
    {"id": "d-paris", "title": "paris", "text": "paris is the capital of france"},
    {"id": "d-rome", "title": "rome", "text": "rome is the capital of italy"},
    {"id": "d-berlin", "title": "berlin", "text": "berlin is the capital of germany"},
    {"id": "d-madrid", "title": "madrid", "text": "madrid is the capital of spain"},
]


@pytest.fixture
def workspace(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(json.dumps(r) for r in CORPUS) + "\n", encoding="utf-8")
    index = tmp_path / "corpus.cfix"
    store = tmp_path / "store"
    assert main(["index", "--corpus", str(corpus), "--index", str(index)]) == 0
    assert main(["build-cache", "--corpus", str(corpus), "--store", str(store),
                 "--prefix", "context:", "--passage-len", "16", *SMALL_MODEL_FLAGS]) == 0
    return {"corpus": corpus, "index": index, "store": store, "tmp": tmp_path}


class TestScoreAnswer:
    def test_containment_true(self):
        assert score_answer("The answer is Paris.", ["Paris"]) is True

    def test_containment_false(self):
        assert score_answer("unknown", ["Paris"]) is False

    def test_no_token_boundary_fuzzing(self):
        assert score_answer("par is", ["Paris"]) is False

    def test_whitespace_normalized(self):
        assert score_answer("the\n answer:  new   york", ["New York"]) is True

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            score_answer("x", [])

    @pytest.mark.parametrize("gold", ["", "  "])
    def test_blank_gold_rejected(self, capsys, gold):
        """A blank answer is contained in every output, so it proves nothing."""
        with pytest.raises(ValueError, match="blank"):
            score_answer("wrong answer", ["Rome", gold])
        assert main(["score", "--output", "wrong answer", "--answer", gold]) == 1
        captured = capsys.readouterr()
        assert "error: a gold answer is blank" in captured.err
        assert captured.out == ""

    def test_cli_prints_boolean(self, capsys):
        assert main(["score", "--output", "it is Rome", "--answer", "Rome"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["score", "--output", "no idea", "--answer", "Rome"]) == 0
        assert capsys.readouterr().out.strip() == "false"


class TestIndexCommand:
    def test_reindex_is_byte_identical(self, workspace):
        index_path = workspace["index"]
        before = index_path.read_bytes()
        assert main(["index", "--corpus", str(workspace["corpus"]),
                     "--index", str(index_path)]) == 0
        assert index_path.read_bytes() == before

    def test_malformed_corpus_line_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "text": "ok"}\nnot json\n', encoding="utf-8")
        code = main(["index", "--corpus", str(bad), "--index", str(tmp_path / "i.cfix")])
        assert code == 1
        assert ":2:" in capsys.readouterr().err

    def test_missing_corpus_is_user_error(self, tmp_path):
        code = main(["index", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--index", str(tmp_path / "i.cfix")])
        assert code == 1


class TestBuildCacheCommand:
    def test_rebuild_is_byte_identical(self, workspace):
        store = workspace["store"]
        before = {p.name: p.read_bytes() for p in sorted(store.rglob("*")) if p.is_file()}
        assert main(["build-cache", "--corpus", str(workspace["corpus"]),
                     "--store", str(store), "--prefix", "context:",
                     "--passage-len", "16", *SMALL_MODEL_FLAGS]) == 0
        after = {p.name: p.read_bytes() for p in sorted(store.rglob("*")) if p.is_file()}
        assert before == after

    def test_stale_store_refused_without_force(self, workspace, capsys):
        args = ["build-cache", "--corpus", str(workspace["corpus"]),
                "--store", str(workspace["store"]), "--prefix", "context:",
                "--passage-len", "16", *SMALL_MODEL_FLAGS]
        stale = [a if a != "7" else "8" for a in args]  # different seed
        assert main(stale) == 1
        assert "force" in capsys.readouterr().err
        assert main(stale + ["--force"]) == 0

    def test_weights_flag_builds_the_store_for_that_model(self, workspace, capsys):
        """The store's model file holds the weights build-cache was given."""
        weights = workspace["tmp"] / "m.cfwt"
        model = Model.from_seed(make_config(num_layers=2, num_heads=2, head_dim=8), 5)
        save_weights(model, weights)
        store = workspace["tmp"] / "from-weights"
        assert main(["build-cache", "--corpus", str(workspace["corpus"]),
                     "--store", str(store), "--prefix", "context:", "--passage-len", "16",
                     "--weights", str(weights)]) == 0
        assert (store / "model.cfwt").read_bytes() == weights.read_bytes()
        assert CacheStore.open(store).model.fingerprint == model.fingerprint

    @pytest.mark.parametrize("damage", ["duplicate-id", "empty-document", "malformed-line"])
    def test_refused_forced_rebuild_leaves_the_store_as_it_was(self, workspace, capsys,
                                                                damage):
        """Every passage is checked before the first write, so a forced
        rebuild for another model and prefix that is refused writes nothing."""
        store = workspace["store"]
        before = {p: p.read_bytes() for p in sorted(store.rglob("*")) if p.is_file()}
        assert store / "model.cfwt" in before
        lines = [json.dumps(r) for r in CORPUS]
        lines.append({"duplicate-id": json.dumps(CORPUS[0]),
                      "empty-document": json.dumps({"id": "d-empty", "text": ""}),
                      "malformed-line": "{not json"}[damage])
        corpus = workspace["tmp"] / "bad.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        flags = [a if a != "7" else "8" for a in SMALL_MODEL_FLAGS]  # another seed
        assert main(["build-cache", "--corpus", str(corpus), "--store", str(store),
                     "--prefix", "other prefix:", "--passage-len", "16", "--force",
                     *flags]) == 1
        assert {"duplicate-id": "duplicate document id 'd-paris'",
                "empty-document": "document produced no tokens",
                "malformed-line": f"{corpus}:5: invalid JSON"}[damage] in capsys.readouterr().err
        after = {p: p.read_bytes() for p in sorted(store.rglob("*")) if p.is_file()}
        assert after == before
        assert main(["run", "--store", str(store), "--index", str(workspace["index"]),
                     "--query", "capital of france", "--k", "2", "--mode", "cache",
                     "--gen-tokens", "2", *RUN_FLAGS]) == 0
        assert json.loads(capsys.readouterr().out)["trace"]["retrieved_ids"]

    @pytest.mark.parametrize("passage_len", ["0", "-5"])
    def test_passage_len_below_one_is_user_error(self, workspace, capsys, passage_len):
        store = workspace["tmp"] / "fresh"
        code = main(["build-cache", "--corpus", str(workspace["corpus"]),
                     "--store", str(store), "--prefix", "context:",
                     "--passage-len", passage_len, *SMALL_MODEL_FLAGS])
        assert code == 1
        assert f"passage length must be >= 1, got {passage_len}" in capsys.readouterr().err
        assert not (store / "manifest.json").exists()


def _set(field, value):
    return lambda manifest: manifest.__setitem__(field, value)


def _drop(field):
    return lambda manifest: manifest.__delitem__(field)


def _set_record(field, value):
    return lambda manifest: manifest["docs"]["d-paris"].__setitem__(field, value)


# name -> (a change to the store's manifest: the new body, or None after
# editing the parsed manifest in place; what the error says is wrong)
MANIFEST_DAMAGE = {
    "list": (lambda manifest: "[]", "not a JSON object"),
    "not-json": (lambda manifest: "{bad", "not JSON"),
    "docs-only": (lambda manifest: '{"docs": {}}', "model_fingerprint is not a string"),
    "fingerprint-number": (_set("model_fingerprint", 5), "model_fingerprint is not a string"),
    "prefix-hash-missing": (_drop("prefix_hash"), "prefix_hash is not a string"),
    "prefix-tokens-string": (_set("prefix_tokens", "abc"), "prefix_tokens is not a list of ints"),
    "prefix-token-float": (_set("prefix_tokens", [1, 2.5]), "prefix_tokens is not a list of ints"),
    "prefix-len-zero": (_set("prefix_len", 0), "prefix_len is not an int >= 1"),
    "prefix-len-bool": (_set("prefix_len", True), "prefix_len is not an int >= 1"),
    "passage-len-negative": (_set("passage_len", -5), "passage_len is not an int >= 1"),
    "passage-len-string": (_set("passage_len", "16"), "passage_len is not an int >= 1"),
    "docs-list": (_set("docs", []), "docs is not an object"),
    "record-string": (lambda manifest: manifest["docs"].__setitem__("d-paris", "x.cfkv"),
                      "record of 'd-paris' is not an object"),
    "file-parent": (_set_record("file", "../prefix.cfkv"), "file of 'd-paris' is not a plain"),
    "file-absolute": (_set_record("file", "/etc/hostname"), "file of 'd-paris' is not a plain"),
    "file-empty": (_set_record("file", ""), "file of 'd-paris' is not a plain"),
    "file-number": (_set_record("file", 3), "file of 'd-paris' is not a plain"),
    "valid-len-zero": (_set_record("valid_len", 0), "valid_len of 'd-paris' is not an int in"),
    "valid-len-past-passage": (_set_record("valid_len", 17),
                               "valid_len of 'd-paris' is not an int in"),
    "valid-len-string": (_set_record("valid_len", "3"), "valid_len of 'd-paris' is not an int in"),
}


class TestRunCommand:
    def run_json(self, workspace, capsys, *extra):
        code = main(["run", "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]),
                     "--corpus", str(workspace["corpus"]),
                     "--gen-tokens", "4", *RUN_FLAGS, *extra])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("damage", ["short-header", "short-config", "short-body",
                                        "base-one"])
    def test_malformed_weight_file_is_user_error(self, workspace, capsys, damage):
        """The store's model file is damaged the way a weight file can be."""
        path = workspace["store"] / "model.cfwt"
        raw = path.read_bytes()
        path.write_bytes({"short-header": b"CFWT",
                          "short-config": b"CFWT\x01\x00\x00\x00\x08",
                          "short-body": raw[:-5] + raw[-4:],
                          # the config's rope base, which the crc does not cover
                          "base-one": raw[:28] + struct.pack("<d", 1.0) + raw[36:]}[damage])
        code = main(["run", "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]), "--query", "capital"])
        assert code == 1
        assert f"weight file {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_store_without_model_file_is_user_error(self, workspace, capsys, command):
        """A store built before stores kept their model must be rebuilt."""
        path = workspace["store"] / "model.cfwt"
        path.unlink()
        code = main([command, "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]), "--corpus", str(workspace["corpus"]),
                     "--query", "capital"])
        assert code == 1
        captured = capsys.readouterr()
        assert f"error: no model file {path}; build the store with build-cache\n" == captured.err
        assert captured.out == ""

    def test_store_answers_with_the_model_it_was_built_with(self, workspace, capsys):
        """A store built with a non-default shape and seed answers every mode
        as a store bound to that seeded model does, with no model flag."""
        config = make_config(num_layers=2, num_heads=2, head_dim=8, max_position=128)
        seeded = CacheStore(workspace["store"], Model.from_seed(config, 7))
        index = load_index(workspace["index"])
        texts = {r["id"]: (r["title"], r["text"]) for r in CORPUS}
        query = "the capital of italy"
        doc_ids = [doc_id for doc_id, _ in search(index, query, 3)]
        schedule = PruningSchedule(interval=1, k_finish=1)
        for mode in MODES:
            payload = self.run_json(workspace, capsys, "--query", query, "--k", "3",
                                    "--mode", mode, "--n", "1", "--k-finish", "1",
                                    "--strategy", "sort")
            tokens, _ = bench.answer(seeded, index, mode, texts, query, doc_ids,
                                     gen_tokens=4, schedule=schedule, strategy="sort",
                                     query_reserve=48)
            assert payload["answer"] == ByteTokenizer().decode(tokens), mode
        assert main(["bench", "--corpus", str(workspace["corpus"]),
                     "--index", str(workspace["index"]), "--store", str(workspace["store"]),
                     "--query", query, "--doc-counts", "1,3", "--gen-tokens", "4",
                     "--n", "1", "--k-finish", "1", *RUN_FLAGS]) == 0
        report = json.loads(capsys.readouterr().out)
        records = [(r["id"], r["title"], r["text"]) for r in CORPUS]
        expected = bench.run_bench(seeded, index, records, query, doc_counts=[1, 3],
                                   gen_tokens=4, schedule=schedule, query_reserve=48)
        assert report["environment"]["model"]["fingerprint"] == seeded.model.fingerprint
        assert "seed" not in report["environment"]
        assert [(r["mode"], r["doc_count"], r["context_length"], r["prefill_mults"],
                 r["decode_mults"]) for r in report["rows"]] == [
            (r.mode, r.doc_count, r.context_length, r.prefill_mults, r.decode_mults)
            for r in expected.rows]

    @pytest.mark.parametrize("damage", ["truncated", "body", "crc"])
    @pytest.mark.parametrize("kind", ["cache", "index"])
    def test_damaged_file_is_user_error(self, workspace, capsys, kind, damage):
        path = workspace["store"] / "prefix.cfkv" if kind == "cache" else workspace["index"]
        raw = bytearray(path.read_bytes())
        if damage == "truncated":
            raw = raw[:len(raw) // 2]
        else:
            raw[len(raw) // 2 if damage == "body" else -1] ^= 0xFF
        path.write_bytes(bytes(raw))
        code = main(["run", "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]), "--query", "capital",
                     *RUN_FLAGS])
        assert code == 1
        assert f"{kind} file {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["prefix", "doc"])
    def test_zero_heads_cache_file_is_user_error(self, workspace, capsys, kind):
        """A 69-byte cache file with num_heads 0 and an empty body passes the
        frame's body-length check; the loader refuses its dimensions."""
        store = workspace["store"]
        if kind == "prefix":
            path = store / "prefix.cfkv"
        else:
            manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
            path = store / "docs" / manifest["docs"]["d-paris"]["file"]
        raw = path.read_bytes()
        fields = list(CACHE_FRAME.header.unpack_from(raw, 8))
        fields[3] = 0  # num_heads
        path.write_bytes(raw[:8] + CACHE_FRAME.header.pack(*fields)
                         + struct.pack("<I", 0))  # the crc32 of an empty body
        assert path.stat().st_size == 69
        code = main(["run", "--store", str(store), "--index", str(workspace["index"]),
                     "--query", "paris capital france", "--k", "4", "--mode", "cache",
                     *RUN_FLAGS])
        assert code == 1
        assert f"error: cache file {path} dimensions" in capsys.readouterr().err

    def test_short_index_file_is_user_error(self, workspace, capsys):
        workspace["index"].write_bytes(b"CFIX\x01\x00")
        code = main(["run", "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]), "--query", "capital",
                     *RUN_FLAGS])
        assert code == 1
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", MANIFEST_DAMAGE)
    def test_malformed_manifest_is_user_error(self, workspace, capsys, damage):
        path = workspace["store"] / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        change, problem = MANIFEST_DAMAGE[damage]
        body = change(manifest)
        path.write_text(json.dumps(manifest) if body is None else body, encoding="utf-8")
        code = main(["run", "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]), "--query", "capital",
                     "--k", "4", *RUN_FLAGS])
        assert code == 1
        assert f"error: manifest {path}: {problem}" in capsys.readouterr().err

    def test_missing_entry_is_user_error_with_its_message_unquoted(self, workspace, capsys):
        path = workspace["store"] / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["docs"]["d-rome"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        code = main(["run", "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]), "--query", "capital",
                     "--k", "4", *RUN_FLAGS])
        assert code == 1
        assert "error: no cache entry for document 'd-rome'\n" in capsys.readouterr().err

    def test_internal_key_error_exits_2(self, workspace, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "answer", broken)
        code = main(["run", "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]), "--query", "capital",
                     *RUN_FLAGS])
        assert code == 2
        assert "KeyError: 'internal'" in capsys.readouterr().err

    def test_negative_query_reserve_is_user_error(self, workspace, capsys):
        for mode in MODES:
            code = main(["run", "--store", str(workspace["store"]),
                         "--index", str(workspace["index"]), "--query", "capital",
                         "--corpus", str(workspace["corpus"]), "--k", "4", "--mode", mode,
                         *RUN_FLAGS, "--query-reserve", "-500"])
            assert code == 1, mode
            captured = capsys.readouterr()
            assert "query_reserve must be >= 0, got -500" in captured.err, mode
            assert captured.out == "", mode

    def test_k_zero_answers_from_prefix_and_query(self, workspace, capsys):
        payload = self.run_json(workspace, capsys, "--query", "capital", "--k", "0",
                                "--mode", "cache")
        assert payload["trace"]["retrieved_ids"] == []
        assert isinstance(payload["answer"], str)

    def test_negative_k_is_user_error(self, workspace, capsys):
        code = main(["run", "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]), "--query", "capital",
                     "--k", "-3", "--mode", "prune", *RUN_FLAGS])
        assert code == 1
        captured = capsys.readouterr()
        assert "--k must be >= 0, got -3" in captured.err
        assert captured.out == ""

    def test_version_one_index_is_user_error(self, workspace, capsys):
        raw = bytearray(workspace["index"].read_bytes())
        raw[4:8] = struct.pack("<I", 1)
        workspace["index"].write_bytes(bytes(raw))
        code = main(["run", "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]), "--query", "capital",
                     *RUN_FLAGS])
        assert code == 1
        assert f"index file {workspace['index']}: unsupported version 1" in (
            capsys.readouterr().err)

    def test_trace_schema(self, workspace, capsys):
        payload = self.run_json(workspace, capsys, "--query", "capital of italy",
                                "--k", "2", "--mode", "prune", "--k-finish", "1",
                                "--n", "1", "--strategy", "sort")
        trace = payload["trace"]
        for field in ("query", "retrieved_ids", "n_reuse", "plan", "per_layer_scores",
                      "pruned_at_layer", "final_ids", "strategy", "timings", "op_counts"):
            assert field in trace
        assert set(trace["timings"]) == {"prefill_s", "decode_s", "total_s"}
        assert set(trace["op_counts"]) == {"prefill_mults", "decode_mults"}
        assert len(trace["final_ids"]) == 1

    def test_naive_equals_cache_for_single_document(self, workspace, capsys):
        naive = self.run_json(workspace, capsys, "--query", "capital of france",
                              "--k", "1", "--mode", "naive")
        cached = self.run_json(workspace, capsys, "--query", "capital of france",
                               "--k", "1", "--mode", "cache", "--strategy", "none")
        assert naive["answer"] == cached["answer"]

    def test_no_cache_counts_encoding_like_the_bench_row(self, workspace, capsys):
        query = ["--query", "the capital", "--k", "2"]
        fresh = self.run_json(workspace, capsys, *query, "--mode", "no-cache")
        cached = self.run_json(workspace, capsys, *query, "--mode", "cache")
        assert main(["bench", "--corpus", str(workspace["corpus"]),
                     "--index", str(workspace["index"]), "--store", str(workspace["store"]),
                     "--query", "the capital", "--doc-counts", "2", "--modes", "no-cache",
                     "--gen-tokens", "4", *RUN_FLAGS]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert fresh["trace"]["retrieved_ids"] == cached["trace"]["retrieved_ids"]
        assert fresh["trace"]["op_counts"]["prefill_mults"] == row["prefill_mults"]
        assert fresh["trace"]["op_counts"]["decode_mults"] == row["decode_mults"]
        assert row["prefill_mults"] > cached["trace"]["op_counts"]["prefill_mults"]

    @pytest.mark.parametrize("mode", ["naive", "no-cache"])
    def test_text_modes_require_corpus(self, workspace, capsys, mode):
        code = main(["run", "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]), "--query", "capital",
                     "--mode", mode, *RUN_FLAGS])
        assert code == 1
        assert "text" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["naive", "no-cache", "cache", "prune"])
    def test_run_reads_the_manifest_once(self, workspace, capsys, monkeypatch, mode):
        reads = []
        read_manifest = CacheStore.read_manifest
        monkeypatch.setattr(CacheStore, "read_manifest",
                            lambda store: reads.append(1) or read_manifest(store))
        self.run_json(workspace, capsys, "--query", "the capital", "--k", "3",
                      "--mode", mode, "--k-finish", "1", "--n", "1")
        assert len(reads) == 1

    def test_trace_file_written(self, workspace, capsys):
        trace_path = workspace["tmp"] / "trace.json"
        code = main(["run", "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]), "--query", "capital",
                     "--k", "1", "--mode", "cache", "--gen-tokens", "2",
                     "--trace", str(trace_path), *RUN_FLAGS])
        assert code == 0
        on_disk = json.loads(trace_path.read_text())
        assert on_disk == json.loads(capsys.readouterr().out)


class TestBenchCommand:
    def bench(self, workspace, capsys, *extra):
        code = main(["bench", "--corpus", str(workspace["corpus"]),
                     "--index", str(workspace["index"]),
                     "--store", str(workspace["store"]),
                     "--query", "the capital", "--doc-counts", "1,2",
                     "--gen-tokens", "4", "--k-finish", "1", "--n", "1",
                     *RUN_FLAGS, *extra])
        assert code == 0
        return capsys.readouterr().out

    def test_csv_and_json_contain_identical_numbers(self, workspace, capsys, tmp_path):
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        self.bench(workspace, capsys, "--csv-path", str(csv_path),
                   "--json-path", str(json_path))
        rows = json.loads(json_path.read_text())["rows"]
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == len(rows) + 1
        for line, row in zip(lines[1:], rows):
            values = line.split(",")
            for column, value in zip(header, values):
                if column in ("mode",):
                    assert value == row[column]
                elif column in ("doc_count", "context_length", "prefill_mults",
                                "decode_mults"):
                    assert int(value) == row[column]
                else:
                    assert float(value) == row[column]

    def test_op_counts_bitwise_repeatable(self, workspace, capsys):
        def counts(out):
            return [(r["mode"], r["doc_count"], r["prefill_mults"], r["decode_mults"])
                    for r in json.loads(out)["rows"]]

        first = counts(self.bench(workspace, capsys))
        second = counts(self.bench(workspace, capsys))
        assert first == second

    def test_all_four_modes_reported(self, workspace, capsys):
        out = self.bench(workspace, capsys)
        modes = {r["mode"] for r in json.loads(out)["rows"]}
        assert modes == {"naive", "no_cache", "cache", "prune"}

    def test_csv_stdout_format(self, workspace, capsys):
        out = self.bench(workspace, capsys, "--out", "csv")
        assert out.splitlines()[0].startswith("mode,doc_count,context_length")

    def test_one_generated_token_reports_null_decode_ratios(self, workspace, capsys):
        report = json.loads(self.bench(workspace, capsys, "--gen-tokens", "1"))
        assert all(row["decode_mults"] == 0 for row in report["rows"])
        for (pair,) in report["ratios"].values():
            assert pair["decode_mult_ratio"] is None
            assert pair["prefill_mult_ratio"] > 1

    def test_doc_count_beyond_corpus_is_user_error(self, workspace, capsys):
        code = main(["bench", "--corpus", str(workspace["corpus"]),
                     "--index", str(workspace["index"]),
                     "--store", str(workspace["store"]),
                     "--query", "x", "--doc-counts", "9",
                     "--gen-tokens", "2", *RUN_FLAGS])
        assert code == 1


class TestHelp:
    MODEL_FLAGS = {"--seed", "--weights", "--num-layers", "--num-heads", "--head-dim",
                   "--max-position", "--rope-base"}
    QUERY_FLAGS = {"--store", "--index", "--query", "--strategy", "--n", "--k-finish",
                   "--query-reserve"}
    OWN_FLAGS = {
        "run": {"--corpus", "--k", "--mode", "--gen-tokens", "--trace"},
        "bench": {"--corpus", "--doc-counts", "--modes", "--gen-tokens", "--out",
                  "--csv-path", "--json-path"},
    }

    @staticmethod
    def help_text(capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        return out, set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_help_lists_every_flag(self, capsys, command):
        out, flags = self.help_text(capsys, command)
        assert flags == {"--help"} | self.QUERY_FLAGS | self.OWN_FLAGS[command]
        assert "{" + ",".join(STRATEGIES) + "}" in out

    @pytest.mark.parametrize("flag", sorted(MODEL_FLAGS))
    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_model_flag_is_a_usage_error(self, capsys, command, flag):
        """run and bench take the store's model; a model flag is refused."""
        assert main([command, "--store", "s", "--index", "i", "--corpus", "c",
                     "--query", "q", flag, "1"]) == 1
        assert f"error: unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["build-cache", "--corpus", "x", "--store", "y", "--prefix", "p",
          "--query-reserve", "-9"], "unrecognized arguments: --query-reserve -9"),
        (["index", "--corpus", "x"], "the following arguments are required: --index"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_error_exits_1_with_the_usage(self, capsys, argv, message):
        """A bad command line is a user error (1), not an internal one (2)."""
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: kvfocus")
        assert f"error: {message}" in err

    def test_top_level_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: kvfocus")

    def test_build_cache_takes_no_query_flags(self, capsys):
        _, flags = self.help_text(capsys, "build-cache")
        assert flags == {"--help", "--corpus", "--store", "--prefix", "--passage-len",
                         "--force"} | self.MODEL_FLAGS
