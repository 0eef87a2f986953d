"""The five commands behind the command line: synthesize data, train,
evaluate, predict curves, and export attention maps. All outputs are plain
CSV or JSON and are byte-identical under a fixed seed. ``cli.run`` imports
this module only once the command line has parsed.
"""

import dataclasses
import json
import math

import numpy as np

from . import data as D
from . import training as T
from .evaluation import CensoringEstimate
from .model import ABSENT, FLOAT, INFER_CHUNK, INT, STRING, judge, load_checkpoint, save_checkpoint


def _parse_list(flag, text, what, valid, count=None):
    """A comma-separated list of floats for ``flag``: non-empty (``count``
    long if given) and each ``valid``; otherwise one error naming ``flag``."""
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        values = []
    if not values or count not in (None, len(values)) or not all(valid(v) for v in values):
        raise ValueError(f"{flag} must list {what}, got {D.echo(text)}")
    return values


def _folds(table, fractions, seed):
    """The table's rows split into folds, each in ``split``'s order."""
    return tuple(table.take(idx) for idx in D.split(range(len(table)), fractions, seed))


def _cmd_synth(args):
    for flag, value in (("--n", args.n), ("--events", args.events), ("--dim", args.dim)):
        if value < 1:
            raise ValueError(f"{flag} must be a positive count, got {D.echo(value)}")
    if not 0.0 <= args.censoring < 1.0:
        raise ValueError(f"--censoring must be a rate in [0, 1), got {D.echo(args.censoring)}")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {D.echo(args.seed)}")
    try:  # the arrays are sized by the three counts, so a refusal names all three
        spec = D.default_synthetic_spec(
            args.n, dim=args.dim, n_events=args.events, censoring_rate=args.censoring, seed=args.seed
        )
        records, propensities = D.synthesize(spec)
    except (MemoryError, ValueError):
        raise ValueError(f"cannot allocate --n {args.n} records with --events {args.events} "
                         f"and --dim {args.dim}") from None
    D.save_records_csv(args.out, records)
    D.save_propensities_csv(D.sidecar_path(args.out), propensities)
    print(f"wrote {args.out} and {D.sidecar_path(args.out)} ({args.n} records)")
    return 0


def _cmd_train(args):
    config = T.TrainConfig.from_json(args.config) if args.config else T.TrainConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    fractions = _parse_list("--fractions", args.fractions, "three finite train,validation,test fractions",
                            math.isfinite, count=3)
    # with neither flag, every column but the labels is a covariate of the kind ``read_raw_csv`` infers
    nums, cats = ([c for c in (flag or "").split(",") if c] for flag in (args.numerical, args.categorical))
    table = D.read_raw_csv(args.data, D.ColumnSpec(nums, cats, args.duration_col, args.event_col),
                           infer=args.numerical is None and args.categorical is None)
    columns = table.columns
    train_table, val_table, _ = _folds(table, fractions, config.seed)
    schema = D.fit_schema(train_table, columns)
    train_records = D.transform_rows(schema, train_table, columns)
    val_records = D.transform_rows(schema, val_table, columns)
    grid = D.build_time_grid(train_records.t, config.model.time_bins, config.grid_scheme)
    model, history, propensity_model = T.train(config, train_records, val_records, schema, grid)
    censoring = T.fit_censoring(train_records)
    extra = {
        "columns": dataclasses.asdict(columns),
        "split": {"fractions": fractions, "seed": config.seed},
        "censoring": {"times": censoring.times.tolist(), "values": censoring.values.tolist()},
        "propensity": propensity_model.to_dict() if propensity_model else None,
        "train_config": config.to_dict(),
    }
    save_checkpoint(args.checkpoint, model, extra)
    history_path = args.out or f"{args.checkpoint}.history.json"
    with open(history_path, "w", encoding="utf-8") as fh:
        json.dump(history.to_dict(), fh, indent=2)
    best = history.epochs[history.best_epoch]
    print(
        f"trained {len(history.epochs)} epochs; best epoch {history.best_epoch} "
        f"(validation loss {best.validation_loss:.6f}); wrote {args.checkpoint}"
    )
    return 0


STRINGS = ("a list of strings", lambda v: isinstance(v, list) and all(STRING[1](x) for x in v))
NUMBERS = ("a list of finite numbers", lambda v: isinstance(v, list) and all(FLOAT[1](x) for x in v))

# The checkpoint's ``extra`` records that commands read, as ``judge`` rules.
EXTRA = {
    "columns": {"numerical": STRINGS, "categorical": STRINGS, "duration": STRING, "event": STRING},
    "split": {
        "fractions": ("a list of three finite numbers", lambda v: NUMBERS[1](v) and len(v) == 3),
        "seed": ("a nonnegative integer", lambda v: INT[1](v) and v >= 0),
    },
    "censoring": {  # as ``km_censoring`` fits them
        "times": ("a strictly increasing list of finite numbers",
                  lambda v: NUMBERS[1](v) and all(a < b for a, b in zip(v, v[1:]))),
        "values": lambda c: (
            ("a nonincreasing list of numbers in [0, 1]",
             lambda v: NUMBERS[1](v) and all(1 >= a >= b >= 0 for a, b in zip(v, v[1:] + [0]))),
            ("as long as extra.censoring.times", lambda v: len(v) == len(c["times"])),
        ),
    },
}


def _load_model(path, required=("columns",)):
    """Load a checkpoint and the column spec it was trained with; its
    ``extra`` record must hold every key in ``required``, as ``EXTRA``
    describes it."""
    model, extra = load_checkpoint(path)
    for key in required:
        judge(extra.get(key, ABSENT) if isinstance(extra, dict) else ABSENT, EXTRA[key], f"extra.{key}", path)
    cols = extra["columns"]
    columns = D.ColumnSpec(cols["numerical"], cols["categorical"], cols["duration"], cols["event"])
    return model, extra, columns


def _load_fold(args, extra, columns, fold):
    table = D.read_raw_csv(args.data, columns)
    if fold == "all":
        return table
    train, validation, test = _folds(table, extra["split"]["fractions"], extra["split"]["seed"])
    return {"train": train, "validation": validation, "test": test}[fold]


def _read_covariates(path, columns):
    """The CSV's rows and the covariate-only spec they were read with: label
    columns are neither required nor read."""
    columns = D.ColumnSpec(columns.numerical, columns.categorical, None, None)
    return D.read_raw_csv(path, columns), columns


def _cmd_eval(args):
    model, extra, columns = _load_model(args.checkpoint, ("columns", "split", "censoring"))
    quantiles = _parse_list("--quantiles", args.quantiles, "quantiles in [0, 1]", lambda q: 0 <= q <= 1)
    records = D.transform_rows(model.schema, _load_fold(args, extra, columns, args.fold), columns)
    censoring = CensoringEstimate(*(np.asarray(extra["censoring"][key], dtype=np.float64)
                                    for key in ("times", "values")))
    report = T.evaluate(model, records, censoring, quantiles)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    for block in report["events"]:
        for h in block["horizons"]:
            print(
                f"event {block['event']} quantile {h['quantile']:.2f} "
                f"(t={h['time']:.4g}): ctd={h['ctd']:.4f} over {h['pairs']} pairs"
            )
    print(f"wrote {args.out}")
    return 0


def _cmd_predict(args):
    model, _, columns = _load_model(args.checkpoint)
    times = np.asarray(_parse_list("--times", args.times, "finite nonnegative query times",
                                   lambda t: math.isfinite(t) and t >= 0))
    records = D.transform_rows(model.schema, *_read_covariates(args.data, columns))
    curves = T.predict(model, records, times)  # (n, K, T)
    n, K, nt = curves.shape
    # one row per (record, time), the K events as columns, every cell a
    # Python float's repr (``%r``); "\0" stands for the record number. The
    # values become Python floats one chunk of records at a time.
    body = "".join(f"\0,{t!r}" + ",%r" * K + "\n" for t in times.tolist())
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        header = ["record", "time"] + [f"survival_event_{k + 1}" for k in range(K)]
        fh.write(",".join(header) + "\n")
        for s in range(0, n, INFER_CHUNK):
            rows = enumerate(curves[s : s + INFER_CHUNK].transpose(0, 2, 1).reshape(-1, nt * K).tolist(), s)
            fh.writelines(body.replace("\0", str(i)) % tuple(row) for i, row in rows)
    print(f"wrote {args.out} ({n} records x {nt} times x {K} events)")
    return 0


def _cmd_attention(args):
    model, _, columns = _load_model(args.checkpoint)
    table, columns = _read_covariates(args.data, columns)
    if not 0 <= args.row < len(table):
        raise ValueError(f"--row {D.echo(args.row)} out of range for {len(table)} records")
    records = D.transform_rows(model.schema, table.take([args.row]), columns)
    maps = model.export_attention(records.cat[0], records.num[0])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"row": args.row, "maps": maps}, fh, indent=2)
    print(f"wrote {args.out} ({len(maps)} maps)")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "attention": _cmd_attention,
}
