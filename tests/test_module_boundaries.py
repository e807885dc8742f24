"""Structural rules of the package source, read from its syntax trees."""

import ast
import pathlib

from landauspec import cli

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "landauspec"


def _calls_by_function(name):
    """Functions under src/landauspec whose body calls something whose
    dotted name ends in `name`, as "module.py:function"."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            callers += [f"{path.name}:{func.name}"
                        for node in ast.walk(func)
                        if isinstance(node, ast.Call)
                        and ast.unparse(node.func).split(".")[-1] == name]
    return callers


def test_no_private_names_imported_across_modules():
    # a module-private helper that another module needs belongs in the
    # public API of its home module
    crossings = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith(
                "landauspec")
            if not internal:
                continue
            crossings += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert crossings == []


def test_no_explicit_inverse_or_condition_number():
    # condition checks come from factorizations the code already holds
    # (Schur, Sylvester, LU); an explicit inverse costs a solve per column
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("cond", "inv")
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg"):
                calls.append(f"{path.name}:{node.lineno}: linalg.{node.attr}")
    assert calls == []


def test_complex_basis_is_formed_only_at_the_file_boundary():
    # OperatorMatrix.entries is the real D^-1 L D; the complex matrix of the
    # operator file comes from operators.complex_entries, which only the
    # file writer calls, so no eigensolve, block product or product with a
    # state runs on it
    assert set(_calls_by_function("complex_entries")) == {
        "operators.py:save_operator"}


def test_stream_slots_are_defined_once():
    # the slots that the stream scaling multiplies by i, and that carry the
    # stream family, have one home; the modules that need them import it
    homes = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "STREAM_SLOTS"
                     for t in node.targets)]
    assert len(homes) == 1, homes


def test_cli_handlers_read_exactly_their_declared_settings():
    # each cmd_<name> handler, with the cli functions it calls, reads the
    # config fields of the settings its command declares in cli.SETTINGS
    # and no others, so no command accepts a flag it ignores
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def fields_read(name, seen):
        if name in seen or name not in functions:
            return set()
        seen.add(name)
        fields = set()
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "config"):
                fields.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func,
                                                           ast.Name):
                fields |= fields_read(node.func.id, seen)
        return fields

    # main reads `out` to write every command's reports and echoes the
    # config through to_dict
    assert fields_read("main", set()) == {"out", "to_dict"}
    read = {name[len("cmd_"):]: fields_read(name, set()) | {"out"}
            for name in functions if name.startswith("cmd_")}
    declared = {command: {s.field for s in cli.read_by(command)}
                for command in cli.COMMANDS}
    assert read == declared


def test_quadrature_is_chosen_only_in_sphbasis():
    # the Gauss rule is a function of k_max that sphbasis.legendre_values
    # builds; a module choosing its own node count could sample the
    # profiles on a rule other than the one the assembly integrates with
    def name(node):
        for attr in ("id", "attr", "name"):  # Name, Attribute, alias
            if isinstance(getattr(node, attr, None), str):
                return getattr(node, attr)
        return None

    uses = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "sphbasis.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if name(node) == "default_node_count" or (
                    isinstance(node, ast.Attribute) and node.attr == "build"
                    and name(node.value) == "QuadratureGrid"):
                uses.append(f"{path.name}:{node.lineno}")
    assert uses == []


def test_nodal_values_become_coefficients_only_in_sphbasis():
    # sphbasis.project and project_div_curl are the weak-form projections;
    # a module reading a grid's weights or a table's norms carries a copy
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "sphbasis.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("w", "norms"):
                reads.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert reads == []


def test_k_integrand_has_one_caller():
    # K is computed by one pipeline: apply_K and assemble_K both run it,
    # so the pointwise integrand is evaluated in exactly one function
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "_k_integrand"):
                    callers.add(f"{path.name}:{func.name}")
    assert len(callers) == 1, sorted(callers)


def test_output_directory_is_made_only_by_main():
    # main makes the directory once the handler has returned its reports,
    # so a run that stops before then leaves none; a handler making it
    # early would leave one
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> innermost enclosing function
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        uses += [f"{path.name}:{owner.get(node, '<module>')}"
                 for node in ast.walk(tree)
                 if "makedirs" in (getattr(node, "attr", None),
                                   getattr(node, "id", None))]
    assert uses == ["cli.py:main"]


def test_profile_denominator_is_formed_only_in_landau():
    # landau evaluates the closed form of the family; a function elsewhere
    # forming d = 1 - eps cos(theta) carries a second copy of it.  The one
    # exception is swirl_ode_residual: its cancellation design needs the
    # closed form in extended precision (longdouble), which landau does
    # not evaluate.
    allowed = {"eigentracker.py:swirl_ode_residual"}

    def forms_denominator(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.Constant)
                and node.left.value == 1
                and isinstance(node.right, ast.BinOp)
                and isinstance(node.right.op, ast.Mult)
                and isinstance(node.right.left, ast.Name)
                and node.right.left.id in ("eps", "epsilon"))

    owners = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "landau.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    map(forms_denominator, ast.walk(func))):
                owners.add(f"{path.name}:{func.name}")
    assert owners == allowed


def test_schur_form_and_sylvester_solve_have_one_home():
    # track's group and contour_projection's projector come from one
    # ordered real Schur form and one Sylvester solve, so every guard on
    # them is written once; dgees is called twice there, the workspace
    # query and the factorisation
    home = ["eigentracker.py:_ordered_schur"]
    assert sorted(set(_calls_by_function("dgees"))) == home
    assert _calls_by_function("dtrsyl") == home


def test_track_takes_no_second_eigensolve():
    # the tracked group is read off the Schur form that also counts it; a
    # plain eigensolve beside it would factor each point twice
    tree = ast.parse((SRC / "eigentracker.py").read_text())
    track = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "track")
    calls = [ast.unparse(node.func) for node in ast.walk(track)
             if isinstance(node, ast.Call)]
    assert not [c for c in calls if c.split(".")[-1] in ("eigvals", "eig")]
    assert "_ordered_schur" in calls


def test_l0_is_read_from_its_cached_pattern():
    # L0 does not depend on eps, so its entries are one cached pattern per
    # (m, k_max): assemble_L adds it into K and split_blocks takes it out of
    # L (operators.k_entries), so no perturbed assembly or split builds a
    # second L0; only L at eps = 0 and the verify battery's integrality
    # check are L0 itself
    assert sorted(_calls_by_function("assemble_L0")) == [
        "cli.py:_verify_checks", "operators.py:assemble_L"]
    assert sorted(_calls_by_function("_l0_pattern")) == [
        "operators.py:assemble_L", "operators.py:assemble_L0",
        "operators.py:k_entries"]
