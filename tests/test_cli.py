"""CLI end-to-end: subcommands, trace schema, bench report invariants."""

import json
import re
import struct

import pytest

from kvfocus.bench import MODES
from kvfocus.cache_store import CacheStore
from kvfocus.cli import main, score_answer
from kvfocus.focus import STRATEGIES
from kvfocus.model import Model, make_config, save_weights

SMALL_MODEL_FLAGS = [
    "--num-layers", "2", "--num-heads", "2", "--head-dim", "8",
    "--max-position", "128", "--seed", "7",
]
# run and bench also take the query flags
RUN_FLAGS = [*SMALL_MODEL_FLAGS, "--query-reserve", "48"]

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
        path = workspace["tmp"] / "m.cfwt"
        model = Model.from_seed(make_config(num_layers=2, num_heads=2, head_dim=8), 7)
        save_weights(model.config, model.weights, path)
        raw = path.read_bytes()
        path.write_bytes({"short-header": b"CFWT",
                          "short-config": b"CFWT\x01\x00\x00\x00\x08",
                          "short-body": raw[:-5] + raw[-4:],
                          # the config's rope base, which the crc does not cover
                          "base-one": raw[:28] + struct.pack("<d", 1.0) + raw[36:]}[damage])
        code = main(["run", "--store", str(workspace["store"]),
                     "--index", str(workspace["index"]), "--query", "capital",
                     "--weights", str(path)])
        assert code == 1
        assert "weight file" in capsys.readouterr().err

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
        assert flags == {"--help"} | self.MODEL_FLAGS | self.QUERY_FLAGS | self.OWN_FLAGS[command]
        assert "{" + ",".join(STRATEGIES) + "}" in out

    def test_build_cache_takes_no_query_flags(self, capsys):
        _, flags = self.help_text(capsys, "build-cache")
        assert flags == {"--help", "--corpus", "--store", "--prefix", "--passage-len",
                         "--force"} | self.MODEL_FLAGS
