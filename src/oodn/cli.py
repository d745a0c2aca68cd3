"""Command-line front end.

Exit codes: 0 success; 1 valid-but-absent result (an operation that
"does not exist"); 2 usage or validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import OodnError
from .io import export_dot, load_file, save_text, write_atomic
from .model import ClassDef, ObjectInstance, QuantitativeProperty
from .network import (
    Network,
    NetworkError,
    NodeRef,
    apply_exploiter,
    apply_modifier,
    class_ref,
    instances_of,
    neighbors,
    object_ref,
    reachable,
    subclasses_of,
    with_inferred,
)

EXIT_OK = 0
EXIT_ABSENT = 1
EXIT_ERROR = 2


def _resolve_name(n: Network, text: str) -> NodeRef:
    """A node name from the command line: a class name or an object's
    display name (identifier, or identifier#cloneIndex for a clone)."""
    node = n.find_node(text)
    if node is None:
        raise NetworkError(f"no class or object named {text!r}")
    return object_ref(node) if isinstance(node, ObjectInstance) else class_ref(node)


def _member_names(spec, sig):
    return {
        "properties": [p.name for p in spec],
        "methods": [m.name for m in sig],
    }


def _node_report(node: ClassDef | ObjectInstance) -> tuple[dict, list]:
    """The JSON report of `node` and its text lines, built in one pass."""
    if isinstance(node, ObjectInstance):
        lines = [f"object {node.node_name}"]
        for p in node.specification:
            if isinstance(p, QuantitativeProperty):
                lines.append(f"  {p.name}: {p.value} {p.units}")
            else:
                lines.append(f"  {p.name}: degree={p.degree}")
        for m in node.signature:
            lines.append(f"  {m.name}({', '.join(m.parameters)})")
        return {"object": node.node_name}, lines
    report = {"name": node.name, "core": None, "projections": []}
    lines = [f"class {node.name}"]
    if node.core is not None:
        names = report["core"] = _member_names(node.core.specification, node.core.signature)
        lines.append(f"  core properties: {', '.join(names['properties']) or '(none)'}")
        lines.append(f"  core methods: {', '.join(names['methods']) or '(none)'}")
    else:
        lines.append("  core: (none)")
    for pr in node.projections:
        names = _member_names(pr.specification, pr.signature)
        report["projections"].append({"source": pr.source_label, **names})
        members = names["properties"] + names["methods"]
        lines.append(f"  projection[{pr.source_label}]: {', '.join(members)}")
    return report, lines


def _relation_line(r) -> str:
    return f"{r.source.display} -{r.kind}-> {r.target.display} [{r.provenance}]"


def _maybe_out(args, n: Network) -> None:
    if args.out:
        write_atomic(args.out, save_text(n))


# --- commands ----------------------------------------------------------------
# Each command returns (exit code, JSON value, text lines) and writes no
# stdout itself: `main` prints one or the other, after any `--out` write.


def _cmd_validate(n: Network, args):
    summary = {
        "classes": len(n.classes),
        "objects": len(n.objects),
        "relations": len(n.relations),
        "modifiers": len(n.modifiers),
        "exploiters": sorted(n.exploiters),
    }
    line = (
        f"ok: {summary['classes']} classes, {summary['objects']} objects, "
        f"{summary['relations']} relations, {summary['modifiers']} modifiers"
    )
    return EXIT_OK, {"ok": True, **summary}, [line]


def _cmd_show(n: Network, args):
    if args.node is not None:
        report, lines = _node_report(n.resolve(_resolve_name(n, args.node)))
        return EXIT_OK, report, lines
    summary = {
        "classes": [t.name for t in n.classes],
        "objects": [o.node_name for o in n.objects],
        "modifiers": [m.name for m in n.modifiers],
        "relations": [_relation_line(r) for r in n.relations],
    }
    lines = [
        f"{key}: {', '.join(summary[key]) or '(none)'}"
        for key in ("classes", "objects", "modifiers")
    ]
    lines += [f"  {line}" for line in summary["relations"]]
    return EXIT_OK, summary, lines


def _cmd_op(n: Network, args):
    operands = [_resolve_name(n, name) for name in args.operands]
    n2, result_ref, result = apply_exploiter(
        n, args.exploiter, operands, clone_index=args.index, dedup=not args.no_dedup
    )
    if result_ref is None:
        value = {"exists": False, "reason": result.reason}
        return EXIT_ABSENT, value, [f"result does not exist: {result.reason}"]
    _maybe_out(args, n2)
    report, lines = _node_report(n2.resolve(result_ref))
    return EXIT_OK, {"exists": True, "result": report}, [f"result: {result_ref.display}", *lines]


def _cmd_modify(n: Network, args):
    target = _resolve_name(n, args.target)
    n2, result_ref = apply_modifier(n, args.modifier, target, dedup=not args.no_dedup)
    _maybe_out(args, n2)
    value = {
        "target": target.display,
        "result": result_ref.display,
        "new_node": n.find_node(result_ref.display) is None,
    }
    _, lines = _node_report(n2.resolve(result_ref))
    return EXIT_OK, value, [f"result: {result_ref.display}", *lines]


def _cmd_infer(n: Network, args):
    n2 = with_inferred(n, args.threshold)
    _maybe_out(args, n2)
    inferred = [r for r in n2.relations if r.provenance == "inferred"]
    value = {
        "relations": [
            {"from": r.source.display, "to": r.target.display, "kind": r.kind} for r in inferred
        ]
    }
    lines = [_relation_line(r) for r in inferred]
    return EXIT_OK, value, [*lines, f"{len(inferred)} inferred relations"]


def _cmd_query(n: Network, args):
    if args.pattern == "instances-of":
        refs = instances_of(n, args.node)
    elif args.pattern == "subclasses-of":
        refs = subclasses_of(n, args.node)
    elif args.pattern == "neighbors":
        refs = neighbors(n, _resolve_name(n, args.node), args.kind, args.direction)
    elif args.pattern == "reachable":
        if args.kind is None:
            raise NetworkError("reachable requires --kind")
        refs = reachable(n, _resolve_name(n, args.node), args.kind)
    else:  # pragma: no cover - argparse restricts choices
        raise NetworkError(f"unknown pattern {args.pattern!r}")
    names = [r.display for r in refs]
    return EXIT_OK, {"nodes": names}, [*names, f"{len(names)} nodes"]


def _cmd_export_dot(n: Network, args):
    text = export_dot(n)
    if args.out:
        write_atomic(args.out, text)
        return EXIT_OK, None, []
    return EXIT_OK, None, text[:-1].split("\n")  # the DOT text ends in one newline


# --- argument parsing --------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a rejected command line instead of printing the usage text
    and exiting, so that `main` reports it as one `error:` line.  Its
    subcommand parsers are of this class too."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache  # `parse_args` leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="oodn",
        description="Work with object/class concept networks: run set-theoretic "
        "operations, apply modifiers, infer relations, query and export graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("file", help="network document (.oodn.json)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if out:
            p.add_argument("--out", help="write the updated network document here")

    p = sub.add_parser("validate", help="load and validate a network document")
    common(p, out=False)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("show", help="summarize the network or one node")
    common(p, out=False)
    p.add_argument("node", nargs="?", help="class name or object identifier")
    p.set_defaults(fn=_cmd_show)

    p = sub.add_parser("op", help="run an exploiter operation")
    common(p)
    p.add_argument(
        "exploiter",
        choices=["union", "intersection", "difference", "symmetric-difference", "clone"],
    )
    p.add_argument("operands", nargs="+", help="operand node names")
    p.add_argument("--index", type=int, help="clone index (clone only)")
    p.add_argument("--no-dedup", action="store_true", help="always add a new node")
    p.set_defaults(fn=_cmd_op)

    p = sub.add_parser("modify", help="apply a registered modifier to a node")
    common(p)
    p.add_argument("modifier", help="modifier name")
    p.add_argument("target", help="target node name")
    p.add_argument("--no-dedup", action="store_true", help="always add a new node")
    p.set_defaults(fn=_cmd_modify)

    p = sub.add_parser("infer", help="infer structural relations")
    common(p)
    p.add_argument("--threshold", type=float, default=1.0)
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("query", help="traverse the relation graph")
    common(p, out=False)
    p.add_argument(
        "pattern", choices=["instances-of", "subclasses-of", "neighbors", "reachable"]
    )
    p.add_argument("node", help="start node")
    p.add_argument("--kind", help="relation kind filter")
    p.add_argument("--direction", choices=["out", "in", "both"], default="out")
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("export-dot", help="export the network as a DOT digraph")
    p.add_argument("file", help="network document (.oodn.json)")
    p.add_argument("--out", help="write DOT here instead of stdout")
    p.set_defaults(fn=_cmd_export_dot, json=False)

    return parser


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, value, lines = args.fn(load_file(args.file), args)
        if args.json:
            print(json.dumps(value, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return code
    except (OSError, OodnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except argparse.ArgumentError as exc:  # rejected by the parser; may quote argv
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a defect: still one line and exit 2, never a traceback
        print(f"error: internal error ({type(exc).__name__}): {_one_line(exc)}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
