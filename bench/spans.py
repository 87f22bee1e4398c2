"""Spans around calls into the layers of lrbasis, for the traced run.

Each wrapped function is replaced under every name a caller looks up: in
its own module, in each lrbasis module that imported it by name and in
the package namespace.  The package source is not edited.  Spans hold the
name, start, end, parent span and request id; they are kept in memory and
written out when the run ends.  Self time is a span's duration minus the
durations of its child spans (calls run on one thread, so children never
overlap).
"""

import json
import sys
import time

# (module, function): the public functions whose calls are timed.  The
# tiny helpers that the determinant calls millions of times (mono_mul,
# mono_from_dict, ...) are left out: wrapping them would time the wrapper.
WRAPPED = (
    ("cli", "main"),
    ("tableaux", "enumerate_lr"), ("tableaux", "standard_peeling"),
    ("tableaux", "monomial_M"), ("tableaux", "recover_from_M"),
    ("tableaux", "monomial_e"), ("tableaux", "recover_from_e"),
    ("oracle", "lr_coefficient"), ("oracle", "schur_polynomial"),
    ("oracle", "expand_in_schur"),
    ("polyring", "determinant"), ("polyring", "coefficient_of"),
    ("polyring", "leading_monomial"), ("polyring", "poly_to_json"),
    ("hwv", "delta_MT"), ("hwv", "delta_TY"), ("hwv", "delta_MT_eval"),
    ("hwv", "delta_eval"),
    ("intlinalg", "bareiss_det"), ("intlinalg", "int_rank"),
    ("verify", "check_hwv"), ("verify", "weight_profile"),
    ("verify", "check_leading_term"), ("verify", "check_basis"),
    ("bz4", "reproduce_sl4_table"),
)


def _terms(result):
    return len(result.terms)


# name -> (stat, function of (args, result) giving a size)
SIZES = {
    "polyring.determinant": ("terms_out", lambda args, res: _terms(res)),
    "hwv.delta_MT": ("terms_out", lambda args, res: _terms(res)),
    "oracle.schur_polynomial": ("terms_out", lambda args, res: _terms(res)),
    "tableaux.enumerate_lr": ("tableaux_out", lambda args, res: len(res)),
    "intlinalg.int_rank": ("cells_in",
                           lambda args, res: len(args[0]) * len(args[0][0]) if args[0] else 0),
}

# Per-layer metrics reported by the traced run: (name, unit, better).
PER_LAYER = [
    ("polyring.determinant.calls", "count", "lower"),
    ("polyring.determinant.self_s", "s", "lower"),
    ("polyring.determinant.terms_out", "count", "lower"),
    ("polyring.coefficient_of.self_s", "s", "lower"),
    ("hwv.delta_MT.calls", "count", "lower"),
    ("hwv.delta_MT.total_s", "s", "lower"),
    ("hwv.delta_MT.terms_out", "count", "lower"),
    ("hwv.delta_MT.kept_ratio", "ratio", "higher"),
    ("hwv.delta_MT.distinct_ratio", "ratio", "higher"),
    ("hwv.delta_TY.calls", "count", "lower"),
    ("hwv.delta_TY.total_s", "s", "lower"),
    ("verify.check_leading_term.total_s", "s", "lower"),
    ("polyring.leading_monomial.self_s", "s", "lower"),
    ("verify.check_hwv.calls", "count", "lower"),
    ("verify.check_hwv.self_s", "s", "lower"),
    ("verify.weight_profile.self_s", "s", "lower"),
    ("oracle.lr_coefficient.calls", "count", "lower"),
    ("oracle.lr_coefficient.total_s", "s", "lower"),
    ("oracle.schur_polynomial.calls", "count", "lower"),
    ("oracle.schur_polynomial.self_s", "s", "lower"),
    ("oracle.schur_polynomial.terms_out", "count", "lower"),
    ("oracle.expand_in_schur.self_s", "s", "lower"),
    ("tableaux.enumerate_lr.calls", "count", "lower"),
    ("tableaux.enumerate_lr.self_s", "s", "lower"),
    ("tableaux.enumerate_lr.tableaux_out", "count", "higher"),
    ("tableaux.standard_peeling.self_s", "s", "lower"),
    ("tableaux.monomial_M.self_s", "s", "lower"),
    ("tableaux.recover_from_M.self_s", "s", "lower"),
    ("tableaux.recover_from_e.self_s", "s", "lower"),
    ("hwv.delta_MT_eval.calls", "count", "lower"),
    ("hwv.delta_MT_eval.self_s", "s", "lower"),
    ("hwv.delta_eval.self_s", "s", "lower"),
    ("intlinalg.bareiss_det.calls", "count", "lower"),
    ("intlinalg.bareiss_det.self_s", "s", "lower"),
    ("intlinalg.int_rank.calls", "count", "lower"),
    ("intlinalg.int_rank.self_s", "s", "lower"),
    ("intlinalg.int_rank.cells_in", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("polyring.poly_to_json.self_s", "s", "lower"),
    ("verify.check_basis.calls", "count", "lower"),
    ("verify.check_basis.total_s", "s", "lower"),
    ("bz4.reproduce_sl4_table.total_s", "s", "lower"),
]


class Tracer:
    """Installs the wrappers and records spans while `recording` is set."""

    def __init__(self):
        self.spans = []          # (id, parent, request, name, start, end)
        self.next_id = 0
        self.stack = []          # open frames: [id, name, start, child_s, det_terms]
        self.stats = {}          # name -> {"calls", "total_s", "self_s", sizes...}
        self.delta_mt_keys = set()
        self.delta_mt_det_terms = 0
        self.request = None
        self.request_runs = 0    # timed runs of a request so far
        self.recording = False

    def start_request(self, request_id):
        self.request = request_id
        self.request_runs += 1

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "lrbasis" or n.startswith("lrbasis."))]
        for mod_name, fn_name in WRAPPED:
            home = sys.modules[f"lrbasis.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)

    def _wrap(self, name, fn):
        size = SIZES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.next_id += 1
            frame = [tracer.next_id, name, 0.0, 0.0, 0]
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.stack.append(frame)
            frame[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer._close(frame, parent, end)
            tracer._sizes(name, size, frame, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, parent, end):
        span_id, name, start, child_s, _ = frame
        dur = end - start
        self.spans.append((span_id, parent, self.request, name, start, end))
        st = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["total_s"] += dur
        st["self_s"] += dur - child_s
        if self.stack:
            self.stack[-1][3] += dur

    def _sizes(self, name, size, frame, args, result):
        st = self.stats[name]
        if size is not None:
            stat, measure = size
            st[stat] = st.get(stat, 0) + measure(args, result)
        if name == "polyring.determinant":
            for open_frame in reversed(self.stack):
                if open_frame[1] == "hwv.delta_MT":
                    open_frame[4] += _terms(result)
                    break
        elif name == "hwv.delta_MT":
            self.delta_mt_keys.add((self.request_runs, args[0], args[1]))
            self.delta_mt_det_terms += frame[4]

    def metrics(self, rounds):
        """Per-layer figures per round of the workload."""
        out = {}
        for metric, unit, _ in PER_LAYER:
            mod, fn, stat = metric.split(".")
            st = self.stats.get(f"{mod}.{fn}", {})
            if stat == "kept_ratio":
                kept = st.get("terms_out", 0)
                value = kept / self.delta_mt_det_terms if self.delta_mt_det_terms else 0.0
            elif stat == "distinct_ratio":
                value = len(self.delta_mt_keys) / st["calls"] if st.get("calls") else 0.0
            else:
                value = st.get(stat, 0) / rounds
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, summary):
        """Spans as JSON lines, then one summary line."""
        with open(path, "w") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")
