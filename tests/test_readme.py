"""The README's examples run as written.

Every ```python block of README.md is executed in order in one shared
namespace, the way a reader pasting them into one session would, so the
quick start cannot drift from the library. Every ```json block is a
simulation config (ugc-sim if it has "measures", else pac-sim) and must
run through the CLI, so the documented configs cannot drift from the
strict config reader. The ```sh block of `thickvc` commands runs line by
line through cli.main, on those configs and a six-point class."""

import json
import re
import shlex
from pathlib import Path

from thickvc import Concept, cli
from thickvc.formats import save_point_set

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_blocks_run():
    python = blocks(README.read_text(encoding="utf-8"), "python")
    assert len(python) >= 2
    namespace: dict = {}
    for i, block in enumerate(python):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_readme_json_configs_run(tmp_path, capsys):
    configs = blocks(README.read_text(encoding="utf-8"), "json")
    assert len(configs) >= 1
    for i, block in enumerate(configs):
        cfg = tmp_path / f"config{i}.json"
        cfg.write_text(block)
        command = "ugc-sim" if "measures" in json.loads(block) else "pac-sim"
        code = cli.main([command, "--config", str(cfg), "--seed", "7"])
        out, err = capsys.readouterr()
        assert code == 0, (i, err)
        assert out.count("\n") >= 1


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    (commands,) = [
        b
        for b in blocks(text, "sh")
        if all(ln.startswith("thickvc ") for ln in b.splitlines())
    ]
    for block in blocks(text, "json"):
        name = "ugc.json" if "measures" in json.loads(block) else "pac.json"
        (tmp_path / name).write_text(block)
    save_point_set(Concept.from_indices(6, [0, 1]), tmp_path / "neg.json")
    monkeypatch.chdir(tmp_path)
    lines = commands.splitlines()
    assert len(lines) >= 10
    stated = 0
    for line in lines:
        command, _, comment = line.partition("#")
        code = cli.main(shlex.split(command)[1:])
        out, err = capsys.readouterr()
        assert code == 0, (line, err)
        if comment.strip().isdigit():  # a stated result, as in `bound`
            (record,) = map(json.loads, out.splitlines())
            assert int(comment) in record.values(), (line, out)
            stated += 1
    assert stated >= 1
