"""The README's examples run as written.

Every ```python block of README.md is executed in order in one shared
namespace, the way a reader pasting them into one session would, so the
quick start cannot drift from the library. Every ```json block is a
simulation config (ugc-sim if it has "measures", else pac-sim) and must
run through the CLI, so the documented configs cannot drift from the
strict config reader."""

import json
import re
from pathlib import Path

from thickvc import cli

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
