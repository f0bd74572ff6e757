"""Per-layer probes: wrappers installed on the public functions of each
engine module, and the per-layer metrics derived from what they record.

The layers are the modules of the engine package.  Every wrapped call is a
span (or, for the hottest leaf calls, a count) attributed to the layer that
defines the function.  Nothing in the engine changes; the wrappers are
installed on the module and class attributes for one traced pass and then
removed.  The one private attribute used is TensorCarrier._echelon_at, the
only place a tensor quotient's echelon form is built.
"""

from __future__ import annotations

import itertools
import weakref
from collections import Counter

from spans import Patches, Tracer, count_wrapper, self_times, span_wrapper

# Public functions and methods wrapped in spans, per layer module (scalars
# has none: its one metric is read from the echelon rows).  Cheap cached
# accessors are left out; their time stays in the caller's span.
SPAN_TABLE = {
    "linalg": {
        None: ("vec_add", "vec_scale", "vec_axpy"),
        "Echelon": ("reduce", "add_row", "kernel_basis"),
        "SparseMatrix": ("__init__", "rows", "col", "cols", "transpose", "mat_vec",
                         "__matmul__", "add", "scale", "echelon", "rank",
                         "kernel_basis", "solve", "column_space_echelon"),
    },
    "algebra": {
        None: ("build_algebra", "parse_element"),
        "DGAlgebra": ("monomials", "diff_mono"),
        "AlgebraElement": ("__add__", "__mul__", "differentiate"),
    },
    "modules": {
        None: ("make_module", "free_module", "shift", "direct_sum", "cone",
               "base_change", "homology_dim", "graded_map_boundary"),
        "SemifreeModule": ("__init__", "basis_in_degree", "diff_column"),
        "ChainMap": ("__init__", "compose", "add"),
    },
    "carriers": {
        None: ("validate_carrier_squares",),
        "Carrier": ("element_act_right", "element_act_left"),
        "AlgebraCarrier": ("diff", "right_act", "left_act"),
        "SemifreeCarrier": ("labels", "dim", "diff", "right_act", "gen_vector"),
        "KernelSubCarrier": ("basis_vectors", "min_degree", "dim", "coords",
                             "to_parent", "diff", "right_act", "left_act"),
        "TensorCarrier": ("dim", "labels", "project_free", "pair_project", "diff",
                          "right_act", "left_act"),
    },
    "diagonal": {
        "Diagonal": ("T", "NT", "NT_A", "BT_A", "tensor_power_J", "delta",
                     "delta_env", "t_prepend", "diagonal_basis",
                     "check_basic_sequence", "check_tensor_sequence",
                     "concatenation_surjective"),
        "EnvelopingCarrier": ("labels", "dim", "pair_vector", "element_pair_vector",
                              "multiply", "diff", "left_act", "right_act", "pi_matrix"),
    },
    "homotopy": {
        None: ("chain_map_to_carrier", "carrier_map_to_chain", "hom_k_dim",
               "is_null_homotopic", "check_AR1", "check_AR2"),
        "MapLayout": ("__init__", "to_flat", "from_flat"),
        "CarrierMap": ("flat", "chain_defect", "validate", "add", "scale", "sub"),
        "HomotopyWitness": ("boundary",),
        "HomSpace": ("__init__", "cycle_dim", "boundary_dim", "dim_K", "cycles",
                     "class_reps", "express", "null_homotopy"),
    },
    "obstruction": {
        None: ("chi_power", "chi_power_iterated", "carrier_maps_equal", "omega_is_zero",
               "gamma_dim", "omega_action_matrix", "cone_component_dims",
               "local_nilpotency", "chain_map_operator", "map_tensor_id",
               "functoriality_defect_is_null", "conjugation_commutes", "towers_agree"),
        "DegreewiseMap": ("__init__", "mat", "apply", "entrywise_equal"),
        "ObstructionTower": ("component", "restriction"),
        "EnvelopingRouteTower": ("core_matrix", "component"),
    },
    "liftcheck": {
        None: ("splitting_search", "summand_witness", "p_ideal_dims",
               "kernel_sequence_check", "naive_lift_battery", "homology_profile",
               "appendix_battery"),
        "SummandWitness": ("recheck",),
    },
    "cli": {
        None: ("main", "parse_instance", "emit"),
    },
}

ACTION_METHODS = {("AlgebraCarrier", "right_act"), ("AlgebraCarrier", "left_act"),
                  ("SemifreeCarrier", "right_act"), ("KernelSubCarrier", "right_act"),
                  ("KernelSubCarrier", "left_act"), ("TensorCarrier", "right_act"),
                  ("TensorCarrier", "left_act"), ("EnvelopingCarrier", "right_act"),
                  ("EnvelopingCarrier", "left_act")}


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


class LayerProbes:
    """Installs the wrappers for one traced pass and turns what they record
    into per-layer metrics."""

    def __init__(self, engine, tracer: Tracer):
        self.engine = engine
        self.tracer = tracer
        self.patches = Patches()
        self.counts: Counter = Counter()
        self._tensor_kind = weakref.WeakKeyDictionary()    # carrier -> "T" or "NT"
        self._tensor_built = weakref.WeakKeyDictionary()   # carrier -> degrees built
        self._actions = weakref.WeakKeyDictionary()        # carrier -> action keys
        self._homspaces = weakref.WeakKeyDictionary()      # source -> {target: shifts}
        self._dirty: dict[int, object] = {}                 # echelons changed this op
        self._serial = weakref.WeakKeyDictionary()        # echelon -> serial number
        self._serials = itertools.count()
        self._nnz: dict[int, int] = {}                      # echelon serial -> nnz
        self.q_max_bits = 0

    # ----- installation ---------------------------------------------------

    def install(self) -> None:
        for layer, owners in SPAN_TABLE.items():
            module = getattr(self.engine, layer)
            for owner_name, attrs in owners.items():
                for attr in attrs:
                    if owner_name is None:
                        self._wrap_function(layer, module, attr)
                    else:
                        self._wrap_method(layer, getattr(module, owner_name), attr)
        linalg = self.engine.linalg
        self.patches.set(linalg.Echelon, "__init__", count_wrapper(
            linalg.Echelon.__init__, self._count("linalg.echelon_builds")))
        algebra = self.engine.algebra
        self.patches.set(algebra.DGAlgebra, "mono_mul", count_wrapper(
            algebra.DGAlgebra.mono_mul, self._count("algebra.mono_mul_calls")))
        carriers = self.engine.carriers
        self.patches.set(carriers.TensorCarrier, "_echelon_at", count_wrapper(
            carriers.TensorCarrier._echelon_at, self._after_tensor_echelon))
        cli = self.engine.cli
        for cmd, fn in list(cli.COMMANDS.items()):
            self.patches.set(cli.COMMANDS, cmd,
                             span_wrapper(self.tracer, f"cli:{fn.__name__}", fn))

    def uninstall(self) -> None:
        self.patches.undo()

    def _hooks(self, owner: str | None, attr: str):
        after = on_error = None
        if (owner, attr) in ACTION_METHODS:
            after = self._after_action(attr)
        elif (owner, attr) == ("Echelon", "add_row"):
            after = self._after_add_row
        elif (owner, attr) == ("HomSpace", "__init__"):
            after = self._after_homspace
        elif (owner, attr) == ("HomSpace", "null_homotopy"):
            after = self._after_null_homotopy
        elif (owner, attr) == ("DegreewiseMap", "__init__"):
            after = self._after_degreewise_map
        elif (owner, attr) in (("Diagonal", "T"), ("Diagonal", "NT")):
            after = self._after_tensor_carrier(attr)
        elif (owner, attr) == (None, "summand_witness"):
            on_error = self._on_summand_error
        elif (owner, attr) == (None, "main"):
            after = self._after_cli_main
        return after, on_error

    def _wrap_function(self, layer: str, module, attr: str) -> None:
        orig = getattr(module, attr)
        after, on_error = self._hooks(None, attr)
        wrapped = span_wrapper(self.tracer, f"{layer}:{attr}", orig, after, on_error)
        # functions imported by name elsewhere are replaced there too
        for mod in self.engine.all_modules:
            for name in [k for k, v in vars(mod).items() if v is orig]:
                self.patches.set(mod, name, wrapped)

    def _wrap_method(self, layer: str, cls, attr: str) -> None:
        orig = cls.__dict__[attr]
        after, on_error = self._hooks(cls.__name__, attr)
        name = f"{layer}:{cls.__name__}.{attr}"
        if isinstance(orig, property):
            wrapped = property(span_wrapper(self.tracer, name, orig.fget, after, on_error))
        else:
            wrapped = span_wrapper(self.tracer, name, orig, after, on_error)
        self.patches.set(cls, attr, wrapped)

    # ----- hooks ----------------------------------------------------------

    def _count(self, key: str):
        counts = self.counts

        def after(args, out):
            counts[key] += 1
        return after

    def _after_add_row(self, args, kept) -> None:
        ech = args[0]
        if kept:
            self.counts["linalg.add_row_kept"] += 1
            self._dirty[id(ech)] = ech

    def _after_tensor_echelon(self, args, ech) -> None:
        car, d = args[0], args[1]
        built = self._tensor_built.setdefault(car, set())
        if d in built:
            return
        built.add(d)
        kind = self._tensor_kind.get(car)
        if kind is not None:
            self.counts[f"free.{kind}"] += ech.ncols
            self.counts[f"quotient.{kind}"] += ech.ncols - ech.rank

    def _after_tensor_carrier(self, kind: str):
        tensor = self.engine.carriers.TensorCarrier

        def after(args, car):
            if isinstance(car, tensor):
                self._tensor_kind[car] = kind
        return after

    def _after_action(self, side: str):
        def after(args, out):
            car, mono, d = args[0], args[1], args[2]
            self.counts["carriers.action_builds"] += 1
            seen = self._actions.setdefault(car, set())
            key = (side, mono, d)
            if key in seen:
                self.counts["carriers.action_repeats"] += 1
            else:
                seen.add(key)
        return after

    def _after_homspace(self, args, out) -> None:
        hs = args[0]
        self.counts["homotopy.homspace_builds"] += 1
        self.counts["homotopy.hom_unknowns"] += hs.layout.total + hs.h_layout.total
        targets = self._homspaces.setdefault(hs.source, weakref.WeakKeyDictionary())
        shifts = targets.setdefault(hs.target, set())
        if hs.shift not in shifts:
            shifts.add(hs.shift)
            self.counts["homotopy.homspace_keys"] += 1

    def _after_null_homotopy(self, args, witness) -> None:
        if witness is None:
            self.counts["homotopy.null_homotopy_none"] += 1

    def _after_degreewise_map(self, args, out) -> None:
        if args[0].name.startswith("w"):
            self.counts["obstruction.component_builds"] += 1

    def _on_summand_error(self, exc) -> None:
        if isinstance(exc, self.engine.errors.FiltrationStuck):
            self.counts["liftcheck.filtration_stuck"] += 1

    def _after_cli_main(self, args, code) -> None:
        if code != 0:
            self.counts["cli.nonzero_exits"] += 1

    # ----- echelon scan ---------------------------------------------------

    def end_op(self) -> None:
        """Measure the echelon forms the finished operation inserted into:
        stored nonzeros, and on Q the largest coefficient bit size."""
        for ech in self._dirty.values():
            if ech not in self._serial:
                self._serial[ech] = next(self._serials)
            serial = self._serial[ech]
            nnz = 0
            rational = ech.field.name == "Q"
            for row in ech.rows:
                nnz += len(row)
                if rational:
                    for c in row.values():
                        bits = c.numerator.bit_length() + c.denominator.bit_length()
                        if bits > self.q_max_bits:
                            self.q_max_bits = bits
            self._nnz[serial] = nnz
        self._dirty.clear()

    # ----- metrics --------------------------------------------------------

    def metrics(self) -> dict:
        tr = self.tracer
        selfs = self_times(tr.start, tr.end, tr.parent)
        names = tr.names
        calls: Counter = Counter()
        self_by_name: Counter = Counter()
        total_by_name: Counter = Counter()
        for i, nid in enumerate(tr.name):
            calls[nid] += 1
            self_by_name[nid] += selfs[i]
            total_by_name[nid] += tr.end[i] - tr.start[i]

        def n(name):
            return sum(v for nid, v in calls.items() if names[nid] == name)

        def self_of(prefix):
            return sum((v for nid, v in self_by_name.items()
                        if names[nid].startswith(prefix)), 0.0)

        def total(name):
            return sum((v for nid, v in total_by_name.items() if names[nid] == name), 0.0)

        c = self.counts
        add_rows = n("linalg:Echelon.add_row")
        actions = c["carriers.action_builds"]
        builds = c["homotopy.homspace_builds"]
        m = {
            "scalars.q_max_coeff_bits": self.q_max_bits,
            "linalg.add_row_calls": add_rows,
            "linalg.add_row_kept": c["linalg.add_row_kept"],
            "linalg.add_row_kept_ratio": _share(c["linalg.add_row_kept"], add_rows),
            "linalg.reduce_calls": n("linalg:Echelon.reduce"),
            "linalg.reduce_self_s": self_of("linalg:Echelon.reduce"),
            "linalg.add_row_self_s": self_of("linalg:Echelon.add_row"),
            "linalg.echelon_builds": c["linalg.echelon_builds"],
            "linalg.solve_calls": n("linalg:SparseMatrix.solve"),
            "linalg.solve_self_s": self_of("linalg:SparseMatrix.solve"),
            "linalg.stored_nnz": sum(self._nnz.values()),
            "algebra.mono_mul_calls": c["algebra.mono_mul_calls"],
            "algebra.element_mul_calls": n("algebra:AlgebraElement.__mul__"),
            "modules.base_change_calls": n("modules:base_change"),
            "modules.homology_dim_calls": n("modules:homology_dim"),
            "carriers.tensor_free_dim.T": c["free.T"],
            "carriers.tensor_free_dim.NT": c["free.NT"],
            "carriers.tensor_quotient_ratio.T": _share(c["quotient.T"], c["free.T"]),
            "carriers.tensor_quotient_ratio.NT": _share(c["quotient.NT"], c["free.NT"]),
            "carriers.pair_project_calls": n("carriers:TensorCarrier.pair_project"),
            "carriers.pair_project_self_s": self_of("carriers:TensorCarrier.pair_project"),
            "carriers.action_builds": actions,
            "carriers.action_repeat_share": _share(c["carriers.action_repeats"], actions),
            "carriers.tensor_self_s": self_of("carriers:TensorCarrier."),
            "carriers.kernel_self_s": self_of("carriers:KernelSubCarrier."),
            "carriers.semifree_self_s": self_of("carriers:SemifreeCarrier."),
            "diagonal.delta_calls": n("diagonal:Diagonal.delta"),
            "diagonal.t_prepend_calls": n("diagonal:Diagonal.t_prepend"),
            "homotopy.homspace_builds": builds,
            "homotopy.homspace_keys": c["homotopy.homspace_keys"],
            "homotopy.homspace_repeat_share":
                _share(builds - c["homotopy.homspace_keys"], builds),
            "homotopy.hom_unknowns": c["homotopy.hom_unknowns"],
            "homotopy.null_homotopy_calls": n("homotopy:HomSpace.null_homotopy"),
            "homotopy.null_homotopy_none": c["homotopy.null_homotopy_none"],
            "homotopy.express_calls": n("homotopy:HomSpace.express"),
            "obstruction.chi_power_calls": n("obstruction:chi_power"),
            "obstruction.component_builds": c["obstruction.component_builds"],
            "obstruction.action_matrix_calls": n("obstruction:omega_action_matrix"),
            "liftcheck.battery_calls": n("liftcheck:naive_lift_battery"),
            "liftcheck.battery_s": total("liftcheck:naive_lift_battery"),
            "liftcheck.splitting_search_s": total("liftcheck:splitting_search"),
            "liftcheck.summand_witness_s": total("liftcheck:summand_witness"),
            "liftcheck.kernel_sequence_s": total("liftcheck:kernel_sequence_check"),
            "liftcheck.filtration_stuck": c["liftcheck.filtration_stuck"],
            "cli.commands": n("cli:main"),
            "cli.parse_s": total("cli:parse_instance"),
            "cli.emit_s": total("cli:emit"),
            "cli.nonzero_exits": c["cli.nonzero_exits"],
        }
        for layer in ("algebra", "modules", "diagonal", "homotopy", "obstruction",
                      "liftcheck"):
            m[f"{layer}.self_s"] = self_of(f"{layer}:")
        return m
