"""Command-line entry point: check, classify, enumerate, verify, dorroh,
golden-check.

Exit codes: 0 success (or conclusion held), 2 a requested check failed or a
counterexample was found, 1 usage or runtime error.  A failed self-check (a
revalidation or an orbit certificate) is an internal error: exit 1 with
"error: internal: ..." on stderr and nothing on stdout or in --out.  JSON
output goes to stdout and nothing else does; diagnostics go to stderr.  The
worker count never changes any output except wall_time; --seed is reserved
for randomized property tooling and is ignored by the deterministic sweeps.
"""

import argparse
import json
import sys
from contextlib import nullcontext
from importlib import resources

from . import axioms, dorroh, enumeration, theorems
from .classify import check_hypermodule, classify_single, classify_two_op, evaluate
from .model import HyperTable, TwoOpModel
from .modelio import ParseError, model_json, model_parts, parse_model, serialize_model
from .parallel import default_workers

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _common_flags(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--workers", type=int, default=None, metavar="N")
    parser.add_argument("--seed", type=int, default=None, metavar="U64")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperlab",
        description="finite-model laboratory for hypercompositional algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate named laws or ring axioms on a model")
    p.add_argument("model", help="model file")
    p.add_argument("--model-format", choices=("auto", "text", "json"), default="auto")
    p.add_argument("--laws", default="", metavar="ID,ID,...")
    p.add_argument("--ring-axioms", default="", metavar="ID,ID,...")
    p.add_argument("--op", choices=("law", "add", "mul", "madd"), default=None)
    _common_flags(p)

    p = sub.add_parser("classify", help="full structure classification of a model")
    p.add_argument("model")
    p.add_argument("--model-format", choices=("auto", "text", "json"), default="auto")
    p.add_argument("--op", choices=("law", "add", "mul", "madd"), default=None)
    p.add_argument("--weak", action="store_true",
                   help="hypermodules: inclusion reading of the scalar-sum axiom")
    _common_flags(p)

    p = sub.add_parser("enumerate", help="list every model meeting constraints")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--structure", default=None, metavar="ID")
    p.add_argument("--laws", default="", metavar="ID,ID,...")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--zero", type=int, default=None)
    p.add_argument("--one", type=int, default=None)
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--oracle", action="store_true")
    _common_flags(p)

    p = sub.add_parser("verify", help="run a theorem verifier")
    p.add_argument("--theorem", required=True, metavar="ID")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--drop-premises", action="store_true")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--json", action="store_true", help="alias for --format json")
    _common_flags(p)

    p = sub.add_parser("dorroh", help="integer-extension associativity probe")
    p.add_argument("--base", required=True, metavar="FILE")
    p.add_argument(
        "--range", type=int, required=True, dest="radius", metavar="N",
        help=f"window radius, 1 to {dorroh.RANGE_CAP}",
    )
    p.add_argument("--json", action="store_true", help="alias for --format json")
    _common_flags(p)

    p = sub.add_parser("golden-check", help="re-run the committed count catalog")
    p.add_argument("--catalog", default=None, metavar="FILE")
    _common_flags(p)
    return parser


def _load_model(path, fmt="auto"):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    if fmt == "auto":
        fmt = "json" if text.lstrip().startswith("{") else "text"
    return parse_model(text, fmt=fmt)


def _component(model, op):
    """The table --op names; by default madd on a hypermodule, else the first."""
    tables = dict(model_parts(model)[1])
    name = op or ("madd" if "madd" in tables else next(iter(tables)))
    if name not in tables:
        raise ValueError(f"model has no operation {name!r}")
    return tables[name]


def _set_str(members):
    return "{" + ",".join(map(str, members)) + "}"


def _cmd_check(args, out):
    model = _load_model(args.model, args.model_format)
    laws = [s for s in args.laws.split(",") if s]
    ring = [s for s in getattr(args, "ring_axioms").split(",") if s]
    if not laws and not ring:
        raise ValueError("nothing to check: pass --laws and/or --ring-axioms")
    table = _component(model, args.op) if laws or args.op else None
    if not laws and args.op:
        raise ValueError("--op names the table --laws are checked on; pass --laws")
    if ring and not isinstance(model, TwoOpModel):
        raise ValueError("--ring-axioms needs a two-operation model")

    # classification's evidence entries: {"axiom", "holds", "witness" or "precondition"}
    entries = [evaluate(table, ("law", law)) for law in laws]
    for variant in ring:
        if variant not in axioms.RING_AXIOM_IDS:
            raise ValueError(f"unknown ring axiom variant: {variant!r}")
        entries.append(evaluate(model, variant))
    all_hold = all(e["holds"] for e in entries)
    if args.format == "json":
        results = {e.pop("axiom"): e for e in entries}
        print(json.dumps({"model": args.model, "results": results, "all_hold": all_hold},
                         sort_keys=True), file=out)
    else:
        for e in entries:
            name, w = e["axiom"], e.get("witness")
            if "precondition" in e:
                print(f"{name}: precondition failed ({e['precondition']})", file=out)
            elif e["holds"]:
                print(f"{name}: holds", file=out)
            else:
                print(f"{name}: fails at {tuple(w['elements'])} "
                      f"lhs={_set_str(w['lhs'])} rhs={_set_str(w['rhs'])}", file=out)
    return EXIT_OK if all_hold else EXIT_NEGATIVE


def _cmd_classify(args, out):
    model = _load_model(args.model, args.model_format)
    if args.weak and (args.op is not None or isinstance(model, (HyperTable, TwoOpModel))):
        raise ValueError("--weak applies only to a hypermodule classified as a whole")
    if args.op is not None:
        report = classify_single(_component(model, args.op))
    elif isinstance(model, HyperTable):
        report = classify_single(model)
    elif isinstance(model, TwoOpModel):
        report = classify_two_op(model)
    else:
        report = check_hypermodule(model, weak=args.weak)
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True), file=out)
    else:
        print("labels:", " ".join(sorted(report.labels)) or "(none)", file=out)
        if report.constants:
            parts = [f"{k}={v}" for k, v in sorted(report.constants.items())]
            print("constants:", " ".join(parts), file=out)
    return EXIT_OK


def _cmd_enumerate(args, out, err):
    constraints = []
    if args.structure:
        constraints.append(args.structure)
    constraints.extend(s for s in args.laws.split(",") if s)
    emitted = []
    job = enumeration.EnumerationJob(
        order=args.order,
        constraints=tuple(constraints),
        up_to_iso=args.up_to_iso,
        zero=args.zero,
        one=args.one,
        oracle=args.oracle,
        emit=emitted.append,
    )
    summary = enumeration.enumerate_models(job, workers=args.workers)
    # the file is opened only once the job has run: a refused one leaves it as it was
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(out) as sink:
        if args.format == "json":
            # each model's JSON object is encoded and dropped in turn: holding
            # all of them at once set the peak memory of a large enumeration
            encode = json.JSONEncoder(sort_keys=True).encode
            print("[" + ", ".join(encode(model_json(m)) for m in emitted) + "]", file=sink)
        else:
            for m in emitted:
                print(serialize_model(m), file=sink)
    print(json.dumps(summary.to_json(), sort_keys=True), file=err)
    return EXIT_OK


def _cmd_verify(args, out):
    fmt = "json" if args.json else args.format
    report = theorems.verify(
        args.theorem,
        args.order,
        drop_premises=args.drop_premises,
        oracle=args.oracle,
        workers=args.workers,
    )
    if fmt == "json":
        print(json.dumps(report.to_json(), sort_keys=True), file=out)
    else:
        print(
            f"{report.theorem} order {report.order}: "
            f"space {report.space_size}, premise models {report.premise_models}, "
            f"conclusion {'holds' if report.conclusion_holds else 'FAILS'} "
            f"({report.wall_time:.2f}s)",
            file=out,
        )
        if report.counterexample:
            print("counterexample:", json.dumps(report.counterexample), file=out)
        for entry in report.independence_witnesses:
            print("independence:", json.dumps(entry), file=out)
        if report.extras:
            print("extras:", json.dumps(report.extras, sort_keys=True), file=out)
    return EXIT_OK if report.conclusion_holds else EXIT_NEGATIVE


def _cmd_dorroh(args, out):
    fmt = "json" if args.json else args.format
    model = _load_model(args.base)
    if not isinstance(model, TwoOpModel):
        raise ValueError("the probe base must be a two-operation model")
    report = dorroh.associativity_probe(
        model, args.radius, workers=args.workers, base_name=args.base
    )
    if fmt == "json":
        print(json.dumps(report.to_json(), sort_keys=True), file=out)
    else:
        print(
            f"window {report.radius}: {report.triples_checked} triples, "
            f"{report.assoc_equal_count} associate equally, "
            f"{report.weak_assoc_ok_count} weakly, "
            f"inclusion {'ok' if report.inclusion_ok else 'VIOLATED'}, "
            f"window addition {'canonical' if report.canonical_window_ok else 'NOT canonical'}",
            file=out,
        )
        if report.first_assoc_violation:
            print("first violation:", json.dumps(report.first_assoc_violation), file=out)
    ok = report.inclusion_ok and report.canonical_window_ok
    return EXIT_OK if ok else EXIT_NEGATIVE


def default_catalog_path() -> str:
    return str(resources.files("hyperlab") / "data" / "golden_catalog.json")


def _cmd_golden(args, out):
    path = args.catalog or default_catalog_path()
    report = enumeration.golden_check(path, workers=args.workers)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True), file=out)
    else:
        for entry in report["entries"]:
            status = "ok" if entry["ok"] else "MISMATCH"
            print(
                f"{entry['name']}: raw {entry['actual_raw']}/{entry['expected_raw']} "
                f"canonical {entry['actual_canonical']}/{entry['expected_canonical']} "
                f"{status}",
                file=out,
            )
        print("pass" if report["pass"] else "fail", file=out)
    return EXIT_OK if report["pass"] else EXIT_NEGATIVE


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    if args.workers is None:
        args.workers = default_workers()
    try:
        if args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        if args.command == "check":
            return _cmd_check(args, out)
        if args.command == "classify":
            return _cmd_classify(args, out)
        if args.command == "enumerate":
            return _cmd_enumerate(args, out, err)
        if args.command == "verify":
            return _cmd_verify(args, out)
        if args.command == "dorroh":
            return _cmd_dorroh(args, out)
        if args.command == "golden-check":
            return _cmd_golden(args, out)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, axioms.PreconditionError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR
    except RuntimeError as exc:  # a failed self-check: a fault of the program, not of its input
        print(f"error: internal: {exc}", file=err)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
