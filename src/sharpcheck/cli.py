"""Command-line front door: run estimate suites from config files and render
stored reports.

Config files are INI-style.  A ``[suite]`` section carries run-wide settings
and one ``[estimate:ID]`` section per catalog entry carries parameter
overrides plus an optional ladder::

    [suite]
    name = core
    seed = 1

    [estimate:MAX-LP]
    p = 2.0
    ladder = 0.25 0.125 0.0625

``verify`` writes the JSON report and the CSV beside it; its flags beat the
config file.  An entry whose run raises is reported with verdict ``error``
and printed as ``ERROR``; the other entries run on.  Exit status: 0 when
every check passes, 1 when a check fails or errs, 2 for unreadable or
invalid configs, a missing output directory (refused before any entry runs),
unwritable report files and malformed reports.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass, field

from .harness import ERROR, SCHEMA_VERSION, EstimateSpec, resolve_entry, run_suite
from .harness.report import csv_from_doc, suite_to_csv, suite_to_json

_SUITE_KEYS = ("name", "seed", "out")
_REPORT_FORMATS = ("summary", "csv", "json")


class ConfigError(Exception):
    """Invalid config or usage; rendered with a file/line prefix when known."""


@dataclass
class SuiteConfig:
    name: str
    path: str
    seed: int | None = None
    out: str | None = None
    blocks: list = field(default_factory=list)   # (estimate id, params, ladder)


def _line_maps(text: str):
    """Config line numbers for section headers and keys, for diagnostics."""
    sections: dict[str, int] = {}
    keys: dict[tuple, int] = {}
    current = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, i)
        elif "=" in line and current is not None and not raw[:1].isspace():
            keys.setdefault((current, line.split("=", 1)[0].strip()), i)
    return sections, keys


def _parse_scalar(text: str):
    t = text.strip()
    low = t.lower()
    if low in ("none", "null"):
        return None
    if low == "true":
        return True
    if low == "false":
        return False
    for cast in (int, float):
        try:
            return cast(t)
        except ValueError:
            pass
    return t


def _parse_ladder(text: str, where: str):
    items = text.replace(",", " ").split()
    if not items:
        raise ConfigError(f"{where}: ladder must list at least one value")
    try:
        return tuple(float(v) for v in items)
    except ValueError:
        raise ConfigError(f"{where}: ladder values must be numbers, got {text!r}") from None


def load_suite(path: str) -> SuiteConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config ({e.strerror or e})") from None

    sections, keys = _line_maps(text)
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       inline_comment_prefixes=("#", ";"))
    parser.optionxform = str            # catalog parameter names are case-sensitive
    try:
        parser.read_string(text, source=path)
    except configparser.ParsingError as e:
        lineno, bad = e.errors[0]
        raise ConfigError(f"{path}, line {lineno}: cannot parse {bad}") from None
    except configparser.Error as e:
        line = getattr(e, "lineno", None)
        at = f", line {line}" if line else ""
        raise ConfigError(f"{path}{at}: {e.message.splitlines()[0]}") from None

    def where(section, key=None):
        line = keys.get((section, key)) if key else sections.get(section)
        return f"{path}, line {line}" if line else path

    if "suite" not in parser:
        raise ConfigError(f"{path}, line 1: missing [suite] section")

    cfg = SuiteConfig(name=os.path.splitext(os.path.basename(path))[0], path=path)
    for key, raw in parser["suite"].items():
        if key not in _SUITE_KEYS:
            raise ConfigError(f"{where('suite', key)}: unknown suite key {key!r} "
                              f"(known: {', '.join(_SUITE_KEYS)})")
        if key == "name":
            cfg.name = raw.strip()
        elif key == "seed":
            cfg.seed = _parse_scalar(raw)
            if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool):
                raise ConfigError(f"{where('suite', key)}: seed must be an integer, got {raw!r}")
        elif key == "out":
            cfg.out = raw.strip()

    for section in parser.sections():
        if section == "suite":
            continue
        if not section.startswith("estimate:"):
            raise ConfigError(f"{where(section)}: unknown section [{section}]; "
                              "expected [suite] or [estimate:ID]")
        estimate_id = section.split(":", 1)[1].strip()
        try:
            entry = resolve_entry(estimate_id)
        except ValueError as e:
            raise ConfigError(f"{where(section)}: {e}") from None

        params, ladder = {}, ()
        for key, raw in parser[section].items():
            if key == "ladder":
                ladder = _parse_ladder(raw, where(section, key))
                continue
            params[key] = _parse_scalar(raw)
            try:                        # merged's typing rule, at the key's own line
                entry.merged({key: params[key]})
            except ValueError as e:
                raise ConfigError(f"{where(section, key)}: invalid parameters for "
                                  f"{entry.id}: {e}") from None
        try:
            merged = entry.merged(params)
            entry.validate(merged)
        except (ValueError, ArithmeticError, TypeError) as e:
            raise ConfigError(f"{where(section)}: invalid parameters for {entry.id}: {e}") from None
        # the entry's default ladder when the config gives none
        try:
            checked = entry.check_ladder(ladder or entry.ladder, merged)
        except ValueError as e:
            raise ConfigError(f"{where(section, 'ladder' if ladder else None)}: {e}") from None
        cfg.blocks.append((estimate_id, params, checked if ladder else ()))

    if not cfg.blocks:
        raise ConfigError(f"{path}: no [estimate:ID] sections")
    return cfg


def cmd_verify(args) -> int:
    cfg = load_suite(args.config)

    seed = args.seed if args.seed is not None else cfg.seed
    if seed is None:
        raise ConfigError(f"{cfg.path}: no seed given; set [suite] seed or --seed")
    if seed < 0:
        source = "--seed" if args.seed is not None else cfg.path
        raise ConfigError(f"{source}: seed must be a non-negative integer, got {seed}")
    out = args.out or cfg.out or f"{cfg.name}.json"
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"{out}: output directory {os.path.dirname(out)!r} does not exist")

    blocks = cfg.blocks
    if args.only is not None:
        chosen = [x.strip() for x in args.only.split(",") if x.strip()]
        if not chosen:
            raise ConfigError(f"--only names no estimate id, got {args.only!r}")
        known = {b[0] for b in blocks}
        for cid in chosen:
            if cid not in known:
                raise ConfigError(f"--only references {cid!r}, which is not in {cfg.path}")
        blocks = [b for b in blocks if b[0] in chosen]

    specs = [EstimateSpec(id=bid, params=params, ladder=ladder, seed=seed)
             for bid, params, ladder in blocks]
    reports = run_suite(specs)
    csv_path = (out[:-5] if out.endswith(".json") else out) + ".csv"
    for path, text in ((out, suite_to_json(cfg.name, reports, seed)),
                       (csv_path, suite_to_csv(reports))):
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigError(f"{path}: cannot write report ({e.strerror or e})") from None

    ok = 0
    for r in reports:
        status = "pass" if r.passed() else "ERROR" if r.verdict == ERROR else "FAIL"
        if r.verdict == ERROR:
            print(f"error: {r.id}: {r.notes['error']}", file=sys.stderr)
        ok += r.passed()
        tail = r.primary.n_emp[-1] if r.primary.n_emp else float("nan")
        print(f"{status}  {r.id:<20} verdict={r.verdict:<12} n_emp={tail:.6g}")
    print(f"suite {cfg.name}: {ok}/{len(reports)} passed; wrote {out}, {csv_path}")
    return 0 if ok == len(reports) else 1


def _load_report(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"{path}: cannot read report ({e.strerror or e})") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed report JSON ({e})") from None
    if not isinstance(doc, dict) or "entries" not in doc or "schema_version" not in doc:
        raise ConfigError(f"{path}: not a suite report (missing schema_version/entries)")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"{path}: schema_version {doc['schema_version']} is not "
                          f"the supported {SCHEMA_VERSION}")
    return doc


def _summary(doc: dict) -> str:
    rows = [("id", "n_emp", "trend", "verdict", "margin")]
    for e in doc["entries"]:
        n_emp = e["primary"]["n_emp"]
        tail = n_emp[-1] if n_emp else "-"
        tail = tail if isinstance(tail, str) else f"{tail:.6g}"
        bound = (e.get("notes") or {}).get("analytic_bound")
        if bound and not isinstance(bound.get("max_n_emp"), str):
            margin = f"{bound['threshold'] - bound['max_n_emp']:+.3g}"
        else:
            margin = "-"
        rows.append((e["id"], tail, e["primary"]["trend"], e["verdict"], margin))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
                   for row in rows)


def cmd_report(args) -> int:
    doc = _load_report(args.report)
    try:
        text = (json.dumps(doc, sort_keys=True, indent=2) + "\n" if args.format == "json"
                else csv_from_doc(doc) if args.format == "csv" else _summary(doc))
    except KeyError as e:
        raise ConfigError(f"{args.report}: malformed report (an entry lacks the key {e})") \
            from None
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharpcheck",
        description="Run estimate-verification suites and render their reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a suite config and write JSON/CSV reports")
    v.add_argument("config", help="suite config file")
    v.add_argument("--seed", type=int, default=None, help="override the suite seed")
    v.add_argument("--out", default=None, help="JSON output path (CSV goes beside it)")
    v.add_argument("--only", default=None, metavar="ID[,ID...]",
                   help="run only the listed estimate ids")
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("report", help="render a stored suite report")
    r.add_argument("report", help="suite report JSON")
    r.add_argument("--format", default="summary", choices=_REPORT_FORMATS,
                   help="summary table, CSV flattening, or byte-stable JSON")
    r.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
