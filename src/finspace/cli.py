"""Command line surface: one JSON document per invocation on stdout.

Exit codes: 0 all checks pass, 1 verification mismatch, 2 input error.
Certificates go to files (--out), never inline into reports.  Each input
document is read, and checked, by its type's ``from_doc``; the CLI checks
only that a file holds a JSON object and the keys of its replay documents.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .collapse import (
    CollapseCertificate,
    TriStateResult,
    beat_points,
    check_restarts,
    core,
    free_faces,
    greedy_collapse_complex,
    greedy_collapse_space,
    is_contractible_space,
    replay_complex_certificate,
    replay_space_certificate,
)
from .complexes import SimplicialComplex
from .covers import FLAVORS, Cover, classify_cover, check_nerve_theorem, nerve, non_hausdorff_nerve, reduced_nerve
from .cylinders import (
    LEFT,
    CylinderSpec,
    check_collapse_left,
    check_collapse_right,
    check_intermediate,
    compose_relations,
    multiple_cylinder,
)
from .errors import Document, FinspaceError, MalformedSpec, _field, _id_set, _object
from .homology import HomologyResult, homology_of_poset, reduced_homology
from .persistence import check_truncation_theorem, persistence_over_chain
from .posets import FinitePoset


def _plain(obj):
    """The JSON data of a report value json cannot write by itself; json
    walks the dicts, lists and tuples and calls this on each such value."""
    if isinstance(obj, (Document, TriStateResult)):
        return obj.to_doc()
    if isinstance(obj, HomologyResult):
        return obj.summary()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True, default=_plain)
    sys.stdout.write("\n")


def _load(path: str) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MalformedSpec(f"{path} is not valid JSON: {exc}") from None
    return _object(doc, "the document")


def _write_certificate(report: dict, out: str | None) -> dict:
    """Move certificates out of a report into a file, leaving a reference.

    A single certificate is written as it is; several, as one JSON object
    keyed by the report path of the entry holding each (``"factor/collapse"``).
    """
    certs = {}

    def strip(node, path):
        if isinstance(node, CollapseCertificate):
            certs["/".join(path[:-1])] = node
            return None
        if isinstance(node, dict):
            return {k: strip(v, path + (k,)) for k, v in node.items()}
        return node

    stripped = strip(report, ())
    if out and certs:
        with open(out, "w") as fh:
            if len(certs) == 1:
                fh.write(next(iter(certs.values())).to_json())
            else:
                json.dump({p: c.to_doc() for p, c in certs.items()}, fh)
        stripped["certificate_file"] = out
    return stripped


# -- subcommand handlers -----------------------------------------------------


def cmd_poset(args) -> int:
    X = FinitePoset.from_doc(_load(args.infile))
    cr, cert = core(X)
    report = {
        "elements": list(X.elements),
        "hasse": sorted(map(list, X.hasse)),
        "height": X.height(),
        "beat_points": beat_points(X),
        "core_size": len(cr),
        "contractible": is_contractible_space(X),
    }
    if args.mode == "collapse":
        res = greedy_collapse_space(X)
        report["collapse"] = _write_certificate(
            {"verdict": res.verdict, "certificate": res.certificate, "note": res.note},
            args.out,
        )
    elif args.out:
        with open(args.out, "w") as fh:
            fh.write(cert.to_json())
        report["core_certificate_file"] = args.out
    _emit(report)
    return 0


def cmd_complex(args) -> int:
    K = SimplicialComplex.from_doc(_load(args.infile))
    report = {
        "dim": K.dim(),
        "num_simplices": [len(K.simplices_of_dim(d)) for d in range(K.dim() + 1)],
        "euler_characteristic": K.euler_characteristic(),
        "free_faces": len(free_faces(K)),
        "homology": reduced_homology(K),
    }
    if args.mode == "collapse":
        res = greedy_collapse_complex(K, restarts=args.restarts, seed=args.seed)
        report["collapse"] = _write_certificate(
            {"verdict": res.verdict, "certificate": res.certificate, "note": res.note},
            args.out,
        )
    elif args.mode == "order":
        report["face_poset"] = K.face_poset()
    _emit(report)
    return 0


def cmd_cylinder(args) -> int:
    spec = CylinderSpec.from_doc(_load(args.infile))
    if args.mode in ("check-left", "check-right", "intermediate-left", "intermediate-right"):
        rels = list(spec.relations)
        for R in rels:
            if R.direction == LEFT:
                raise MalformedSpec(
                    f"relation {R.source_name} -> {R.target_name} is left-going;"
                    " the check modes compose right-going relations only"
                )
        if args.mode.startswith("intermediate"):
            if len(rels) != 2:
                raise MalformedSpec("intermediate checks need exactly two relations")
            report = check_intermediate(rels[0], rels[1], args.mode.split("-")[1])
            checks = [report["factor"], report["composite"]]
        else:
            if len(rels) > 2:
                raise MalformedSpec("collapse checks need one or two relations")
            R = rels[0] if len(rels) == 1 else compose_relations(rels[0], rels[1])
            check = check_collapse_left if args.mode == "check-left" else check_collapse_right
            report = check(R)
            checks = [report]
        _emit(_write_certificate(report, args.out))
        # a hypothesis that does not hold is reported; only a failed collapse is a mismatch
        return 1 if any(c["collapse"]["verdict"] == "failed" for c in checks) else 0
    B = multiple_cylinder(spec)
    _emit({"cylinder": B, "height": B.height()})
    return 0


def cmd_nerve(args) -> int:
    cover = Cover.from_doc(_load(args.infile))
    if args.mode == "face-poset":
        _emit({"face_poset": non_hausdorff_nerve(cover)})
    elif args.mode == "reduced":
        rn = reduced_nerve(cover)
        _emit(
            {
                "poset": rn.poset,
                "classes": {rep: sorted(map(list, Js)) for rep, Js in rn.classes.items()},
            }
        )
    else:
        _emit({"nerve": nerve(cover)})
    return 0


def cmd_cover(args) -> int:
    cover = Cover.from_doc(_load(args.infile))
    cls = classify_cover(
        cover,
        max_subsets=args.max_subsets,
        restarts=args.restarts,
        seed=args.seed,
    )
    _emit(
        {
            "good": cls.good,
            "strong_good": cls.strong_good,
            "records": [
                {
                    "index_set": list(r.index_set),
                    "empty": r.empty,
                    "triviality": r.triviality,
                    "collapsibility": r.collapsibility,
                }
                for r in cls.records
            ],
            "seed": args.seed,
        }
    )
    return 0


def cmd_homology(args) -> int:
    doc = _load(args.infile)
    if args.mode == "poset":
        hom = homology_of_poset(FinitePoset.from_doc(doc))
    else:
        hom = reduced_homology(SimplicialComplex.from_doc(doc))
    _emit(hom.summary()["degrees"])
    return 0


def cmd_persistence(args) -> int:
    cover = Cover.from_doc(_load(args.infile))
    if args.mode is not None:
        chain = [step.split(",") for step in args.mode.split("<")]
        for k, names in enumerate(chain, start=1):
            if names == [""]:
                raise MalformedSpec(f"empty index set at step {k}")
            if "" in names:
                raise MalformedSpec(f"empty member name at step {k}")
    else:
        names = sorted(cover.names())
        chain = [names[: i + 1] for i in range(len(names))]
    diagram = persistence_over_chain(cover, chain)
    sys.stdout.write(diagram.to_json_lines() + "\n")
    return 0


def cmd_verify(args) -> int:
    doc = _load(args.infile)
    if args.flavor == "truncation":
        cover = Cover.from_doc(doc)
        cls = classify_cover(cover, restarts=args.restarts, seed=args.seed)
        report = check_truncation_theorem(cover, seed=args.seed, classification=cls)
        report["seed"] = args.seed
        _emit(report)
        implied = report["strong_good"] == "yes" and not report["has_empty_intersections"]
        holds = report["part1_nerve_homology_match"] and report["part2_subunions_acyclic"]
        return 1 if implied and not holds else 0
    if args.flavor == "replay-complex":
        K = SimplicialComplex.from_doc(_field(doc, "complex", "a replay document"))
        cert = CollapseCertificate.from_doc(_field(doc, "certificate", "a replay document"))
        target = SimplicialComplex.from_doc(doc["target"], "the target") if "target" in doc else None
        ok = replay_complex_certificate(K, cert, target=target)
        _emit({"replay_ok": ok})
        return 0 if ok else 1
    if args.flavor == "replay-space":
        X = FinitePoset.from_doc(_field(doc, "poset", "a replay document"))
        cert = CollapseCertificate.from_doc(_field(doc, "certificate", "a replay document"))
        target = frozenset(_id_set(doc["target"], "the target")) if "target" in doc else None
        ok = replay_space_certificate(X, cert, target=target)
        _emit({"replay_ok": ok})
        return 0 if ok else 1
    cover = Cover.from_doc(doc)
    report = check_nerve_theorem(cover, args.flavor, restarts=args.restarts, seed=args.seed)
    report["seed"] = args.seed
    _emit(report)
    if report["hypothesis_verdict"] == "yes" and not report["conclusion_homology_match"]:
        return 1
    return 0


def cmd_suite(args) -> int:
    from .suite import run_suite

    report = run_suite(
        seed=args.seed,
        restarts=args.restarts,
        full=args.mode == "full",
        out_dir=args.out,
        fixtures_dir=args.fixtures,
    )
    _emit(report)
    return 0 if report["failed"] == 0 else 1


_FLAGS = {
    "--out": {"default": None},
    "--seed": {"type": int, "default": 0},
    "--restarts": {"type": int, "default": 8},
    "--max-subsets": {"type": int, "default": None},
    "--fixtures": {"default": None},
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="finspace")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(parent, name, help, fn, *flags, needs_in=True):
        """A subcommand taking --in (unless needs_in is false) and the named flags."""
        sp = parent.add_parser(name, help=help)
        if needs_in:
            sp.add_argument("--in", dest="infile", required=True)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(fn=fn)
        return sp

    sp = command(sub, "poset", "summarize a finite space", cmd_poset, "--out")
    sp.add_argument("--mode", choices=["summary", "collapse"], default="summary")

    sp = command(
        sub, "complex", "summarize a simplicial complex", cmd_complex,
        "--out", "--seed", "--restarts",
    )
    sp.add_argument("--mode", choices=["summary", "collapse", "order"], default="summary")

    sp = command(sub, "cylinder", "build or check a cylinder of relations", cmd_cylinder, "--out")
    sp.add_argument(
        "--mode",
        choices=["build", "check-left", "check-right", "intermediate-left", "intermediate-right"],
        default="build",
    )

    sp = command(sub, "nerve", "nerve constructions of a cover", cmd_nerve)
    sp.add_argument("--mode", choices=["nerve", "face-poset", "reduced"], default="nerve")

    cover_p = sub.add_parser("cover", help="cover operations")
    cover_sub = cover_p.add_subparsers(dest="cover_command", required=True)
    command(
        cover_sub, "classify", "good / strong-good verdicts", cmd_cover,
        "--seed", "--restarts", "--max-subsets",
    )

    sp = command(sub, "homology", "reduced integral homology", cmd_homology)
    sp.add_argument("--mode", choices=["complex", "poset"], default="complex")

    sp = command(sub, "persistence", "barcode over a chain of index sets", cmd_persistence)
    sp.add_argument("--mode", default=None, help="chain, e.g. 'U1<U1,U2<U1,U2,U3'")

    sp = command(sub, "verify", "theorem checkers", cmd_verify, "--seed", "--restarts")
    sp.add_argument(
        "flavor", choices=list(FLAVORS) + ["truncation", "replay-complex", "replay-space"]
    )

    sp = command(
        sub, "suite", "golden and randomized suites", cmd_suite,
        "--out", "--seed", "--restarts", "--fixtures", needs_in=False,
    )
    sp.add_argument("--mode", choices=["quick", "full"], default="quick")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # checked up front, since some subcommands run no free-face search
        check_restarts(getattr(args, "restarts", 0))
        return args.fn(args)
    except (FinspaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
