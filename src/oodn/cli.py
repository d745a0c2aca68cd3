"""Command-line front end.

Exit codes: 0 success; 1 valid-but-absent result (an operation that
"does not exist"); 2 usage or validation errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .errors import OodnError
from .io import export_dot, load_file, save_text
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


def _write_atomic(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent) or ".", prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, str(target))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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


def _node_report(node: ClassDef | ObjectInstance) -> dict:
    if isinstance(node, ObjectInstance):
        return {"object": node.node_name}
    report = {"name": node.name, "core": None, "projections": []}
    if node.core is not None:
        report["core"] = _member_names(node.core.specification, node.core.signature)
    for pr in node.projections:
        entry = {"source": pr.source_label}
        entry.update(_member_names(pr.specification, pr.signature))
        report["projections"].append(entry)
    return report


def _print_node_report(node: ClassDef | ObjectInstance) -> None:
    if isinstance(node, ObjectInstance):
        print(f"object {node.node_name}")
        for p in node.specification:
            if isinstance(p, QuantitativeProperty):
                print(f"  {p.name}: {p.value} {p.units}")
            else:
                print(f"  {p.name}: degree={p.degree}")
        for m in node.signature:
            print(f"  {m.name}({', '.join(m.parameters)})")
        return
    print(f"class {node.name}")
    if node.core is not None:
        names = _member_names(node.core.specification, node.core.signature)
        print(f"  core properties: {', '.join(names['properties']) or '(none)'}")
        print(f"  core methods: {', '.join(names['methods']) or '(none)'}")
    else:
        print("  core: (none)")
    for pr in node.projections:
        names = _member_names(pr.specification, pr.signature)
        members = names["properties"] + names["methods"]
        print(f"  projection[{pr.source_label}]: {', '.join(members)}")


def _relation_line(r) -> str:
    return f"{r.source.display} -{r.kind}-> {r.target.display} [{r.provenance}]"


def _maybe_out(args, n: Network) -> None:
    if getattr(args, "out", None):
        _write_atomic(args.out, save_text(n))


# --- commands ----------------------------------------------------------------


def _cmd_validate(n: Network, args) -> int:
    summary = {
        "classes": len(n.classes),
        "objects": len(n.objects),
        "relations": len(n.relations),
        "modifiers": len(n.modifiers),
        "exploiters": sorted(n.exploiters),
    }
    if args.json:
        print(json.dumps({"ok": True, **summary}, sort_keys=True))
    else:
        print(
            f"ok: {summary['classes']} classes, {summary['objects']} objects, "
            f"{summary['relations']} relations, {summary['modifiers']} modifiers"
        )
    return EXIT_OK


def _cmd_show(n: Network, args) -> int:
    if args.node is None:
        if args.json:
            print(
                json.dumps(
                    {
                        "classes": [t.name for t in n.classes],
                        "objects": [o.node_name for o in n.objects],
                        "modifiers": [m.name for m in n.modifiers],
                        "relations": [_relation_line(r) for r in n.relations],
                    },
                    sort_keys=True,
                )
            )
            return EXIT_OK
        print(f"classes: {', '.join(t.name for t in n.classes) or '(none)'}")
        print(f"objects: {', '.join(o.node_name for o in n.objects) or '(none)'}")
        print(f"modifiers: {', '.join(m.name for m in n.modifiers) or '(none)'}")
        for r in n.relations:
            print(f"  {_relation_line(r)}")
        return EXIT_OK
    node = n.resolve(_resolve_name(n, args.node))
    if args.json:
        print(json.dumps(_node_report(node), sort_keys=True))
    else:
        _print_node_report(node)
    return EXIT_OK


def _cmd_op(n: Network, args) -> int:
    operands = [_resolve_name(n, name) for name in args.operands]
    n2, result_ref, result = apply_exploiter(
        n, args.exploiter, operands, clone_index=args.index, dedup=not args.no_dedup
    )
    if result_ref is None:
        if args.json:
            print(json.dumps({"exists": False, "reason": result.reason}, sort_keys=True))
        else:
            print(f"result does not exist: {result.reason}")
        return EXIT_ABSENT
    _maybe_out(args, n2)
    node = n2.resolve(result_ref)
    if args.json:
        print(json.dumps({"exists": True, "result": _node_report(node)}, sort_keys=True))
        return EXIT_OK
    print(f"result: {result_ref.display}")
    _print_node_report(node)
    return EXIT_OK


def _cmd_modify(n: Network, args) -> int:
    target = _resolve_name(n, args.target)
    n2, result_ref = apply_modifier(n, args.modifier, target, dedup=not args.no_dedup)
    _maybe_out(args, n2)
    if args.json:
        print(
            json.dumps(
                {
                    "target": target.display,
                    "result": result_ref.display,
                    "new_node": _is_new(n, result_ref),
                },
                sort_keys=True,
            )
        )
        return EXIT_OK
    print(f"result: {result_ref.display}")
    _print_node_report(n2.resolve(result_ref))
    return EXIT_OK


def _is_new(n: Network, ref: NodeRef) -> bool:
    return n.find_node(ref.display) is None


def _cmd_infer(n: Network, args) -> int:
    n2 = with_inferred(n, args.threshold)
    inferred = [r for r in n2.relations if r.provenance == "inferred"]
    if args.json:
        print(
            json.dumps(
                {
                    "relations": [
                        {
                            "from": r.source.display,
                            "to": r.target.display,
                            "kind": r.kind,
                        }
                        for r in inferred
                    ]
                },
                sort_keys=True,
            )
        )
    else:
        for r in inferred:
            print(_relation_line(r))
        print(f"{len(inferred)} inferred relations")
    _maybe_out(args, n2)
    return EXIT_OK


def _cmd_query(n: Network, args) -> int:
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
    if args.json:
        print(json.dumps({"nodes": [r.display for r in refs]}, sort_keys=True))
    else:
        for r in refs:
            print(r.display)
        print(f"{len(refs)} nodes")
    return EXIT_OK


def _cmd_export_dot(n: Network, args) -> int:
    text = export_dot(n)
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a rejected command line instead of printing the usage text
    and exiting, so that `main` reports it as one `error:` line.  Its
    subcommand parsers are of this class too."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


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
    p.set_defaults(fn=_cmd_export_dot)

    return parser


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(load_file(args.file), args)
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
