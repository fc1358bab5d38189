from pathlib import Path

import repfn

FIELD_AND_ENGINE_INTERNALS = (
    "FieldCtx",
    "field_ctx_build",
    "field_mul",
    "field_pow",
    "rep_profile_fast",
    "rep_profile_naive",
)


def test_every_exported_name_resolves():
    for name in repfn.__all__:
        assert getattr(repfn, name) is not None, name
    assert len(set(repfn.__all__)) == len(repfn.__all__)


def test_field_and_engine_internals_stay_in_their_modules():
    for name in FIELD_AND_ENGINE_INTERNALS:
        assert name not in repfn.__all__
        assert not hasattr(repfn, name), name
    from repfn.profiles import rep_profile_fast, rep_profile_naive  # noqa: F401
    from repfn.singer import FieldCtx, field_ctx_build, field_mul, field_pow  # noqa: F401


def test_readme_quick_start_runs(capsys):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    block = section[start:section.index("```", start)]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["T11A", "holds"], ["T12A", "holds"], ["T13A", "holds"],
    ]
