#!/usr/bin/env python3
"""List the library functions that no program keeps.

Builds every non-test program of the repository at -O0 with
``-ffunction-sections -Wl,--gc-sections``: ``wsnctl``, ``bench_engine``,
the three ``examples/`` tours, and ``wsnbench`` from its own
``wsnbench/`` project.  At -O0 nothing is inlined, so a function that
the linker drops from every program is one that no program calls.

It then lists every ``wsn::`` function that the objects of the ``wsn``
and ``wsn_scenarios`` libraries define (``nm`` type T or W) and that no
program keeps, minus the entries of ``tools/dead_code_allow.txt``.  Each
allow entry is a demangled signature, or a prefix ending in ``*``,
followed by `` -- `` and the test that uses it as an oracle, fixture or
check, or the paper equation it implements.

Prints one function per line and exits 1 when any is left, or when an
allow entry has no reason or matches nothing left to allow.  Prints
nothing and exits 0 otherwise.

Usage: tools/dead_code.py [--build-dir DIR]
"""
import argparse
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOW = ROOT / "tools" / "dead_code_allow.txt"
MAIN_PROGRAMS = ("wsnctl", "bench_engine", "quickstart", "custom_petri_net",
                 "bursty_traffic")
# A function in namespace wsn (or a class in it), const/ref-qualified or
# not; a std:: template instantiated on a wsn type does not match.
WSN_FUNCTION = re.compile(r"^_ZN[KVRO]*3wsn")


def run(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.exit(f"command failed: {' '.join(cmd)}")


def build(source, build_dir, targets, extra=()):
    run(["cmake", "-S", str(source), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
         "-DCMAKE_CXX_FLAGS=-ffunction-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections", *extra])
    run(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
         "--target", *targets])


def library_objects(build_dir):
    """The objects of `wsn` and `wsn_scenarios`, mapped from today's
    sources as CMakeLists.txt globs them (so a deleted source's stale
    object in a reused build directory does not count)."""
    for source in sorted((ROOT / "src").rglob("*.cpp")):
        rel = source.relative_to(ROOT)
        lib = ("wsn_scenarios.dir" if source.name.startswith("scenarios_")
               and source.parent.name == "scenario" else "wsn.dir")
        yield build_dir / "CMakeFiles" / lib / f"{rel}.o"


def functions(path):
    """Mangled names of the functions `path` defines (nm type T or W)."""
    out = subprocess.run(["nm", "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in ("T", "W"):
            names.add(parts[2])
    return names


def demangle(names):
    """Mangled -> demangled.  C1/C2 constructor (and D1/D2 destructor)
    variants demangle alike, so comparisons run on demangled names."""
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def load_allow():
    entries = []
    for number, line in enumerate(ALLOW.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.rpartition(" -- ")
        if not sep or not name.strip() or not reason.strip():
            sys.exit(f"{ALLOW.name}:{number}: no ' -- <reason>' in: {line}")
        entries.append(name.strip())
    return entries


def allowed(name, entry):
    if entry.endswith("*"):
        return name.startswith(entry[:-1])
    return name == entry


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=str(ROOT / ".dead_code_build"))
    args = parser.parse_args()
    build_dir = pathlib.Path(args.build_dir).resolve()

    build(ROOT, build_dir / "main", MAIN_PROGRAMS, ("-DBUILD_TESTING=OFF",))
    build(ROOT / "wsnbench", build_dir / "wsnbench", ("wsnbench",))
    programs = [build_dir / "main" / name for name in MAIN_PROGRAMS]
    programs.append(build_dir / "wsnbench" / "wsnbench")

    defined = set()
    for obj in library_objects(build_dir / "main"):
        defined |= {n for n in functions(obj) if WSN_FUNCTION.match(n)}
    kept = set()
    for program in programs:
        kept |= functions(program)
    kept_names = set(demangle(kept).values())
    defined_names = set(demangle(defined).values())

    entries = load_allow()
    dead = sorted(defined_names - kept_names)
    left = [n for n in dead if not any(allowed(n, e) for e in entries)]
    stale = [e for e in entries if not any(allowed(n, e) for n in dead)]
    for name in left:
        print(name)
    for entry in stale:
        print(f"{ALLOW.name}: stale entry (kept or gone): {entry}")
    return 1 if left or stale else 0


if __name__ == "__main__":
    sys.exit(main())
