"""Command-line entry point.

Exit codes: 0 success, 1 usage error (bad flags or preconditions, or a path
that cannot be read or written), 2 data error (malformed input files), 3
internal or numeric error. All diagnostics go to standard error; data goes
where the flags say.
"""

from __future__ import annotations

import contextlib
import logging
import sys
from dataclasses import fields
from pathlib import Path

import click

from . import __version__, crf
from .corpus import (
    filter_fields,
    format_conll,
    format_inline_xml,
    read_corpus,
    sample as corpus_sample,
    split as corpus_split,
    text_lines,
    write_corpus,
)
from .crf import (
    MODEL_FORMAT,
    TrainConfig,
    decode_many,
    load_model,
    save_model,
    train as crf_train,
)
from .errors import DataError, RefparseError, UsageError
from .experiments import (
    ExperimentPlan,
    _evaluate_model,
    cross_matrix,
    field_ablation,
    size_curve,
)
from .features import FeatureConfig, load_gazetteer_file
from .labels import sort_fields
from .metrics import format_report_table, write_report_csv
from .synthgen import (
    builtin_styles,
    generate_corpus,
    random_records,
    read_records,
    read_style,
    style_family,
    write_records,
)
from .tokenizer import tokenize

VERSION_TEXT = f"refparse {__version__} (model format {MODEL_FORMAT})"


def _print_version(ctx, param, value):
    if not value or ctx.resilient_parsing:
        return
    click.echo(VERSION_TEXT)
    ctx.exit()


@click.group(name="refparse")
@click.option(
    "--version", is_flag=True, callback=_print_version, expose_value=False,
    is_eager=True, help="Print version and model-format version.",
)
@click.option("-v", "--verbose", is_flag=True, help="Log progress to stderr.")
def cli(verbose: bool) -> None:
    """Citation-parsing toolkit: synthesize corpora, train CRF parsers,
    evaluate, and run the experiment suites."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _read_lines(in_path) -> list[str]:
    """The lines of the --in file, or of stdin without one, cut as corpus files are."""
    return text_lines(Path(in_path).read_text(encoding="utf-8") if in_path else sys.stdin.read())


def _resolve_styles(spec: str):
    if spec == "builtin":
        return builtin_styles()
    if spec.startswith("builtin:"):
        return style_family(spec.split(":", 1)[1])
    path = Path(spec)
    if not path.is_dir():
        raise UsageError(f"styles must be 'builtin', 'builtin:<family>' or a directory: {spec}")
    styles = [read_style(p) for p in sorted(path.glob("*.style"))]
    if not styles:
        raise UsageError(f"no .style files in {path}")
    return styles


@cli.command()
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--styles", default="builtin", show_default=True,
              help="'builtin', 'builtin:A', 'builtin:B', or a directory of .style files.")
@click.option("--n", "n", required=True, type=int, help="Number of instances.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--per-author", is_flag=True, help="One author span per author.")
@click.option("--out", "out_path", required=True, type=click.Path())
def generate(records_path, styles, n, seed, per_author, out_path):
    """Render records through styles into a labeled corpus."""
    corpus = generate_corpus(
        read_records(records_path),
        _resolve_styles(styles),
        n=n,
        seed=seed,
        per_author=per_author,
    )
    write_corpus(corpus, out_path)
    click.echo(f"wrote {len(corpus)} instances to {out_path}", err=True)


@cli.command()
@click.option("--n", required=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
def records(n, seed, out_path):
    """Write deterministic pseudo-random bibliographic records (JSON lines)."""
    write_records(random_records(n, seed), out_path)
    click.echo(f"wrote {n} records to {out_path}", err=True)


@cli.command()
@click.argument("src", type=click.Path(exists=True))
@click.argument("dst", type=click.Path())
def convert(src, dst):
    """Convert between inline-XML and CoNLL (by file extension)."""
    write_corpus(read_corpus(src), dst)


@cli.command()
@click.argument("src", type=click.Path(exists=True))
@click.option("--ratio", required=True, type=float, help="Train share in (0,1).")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--train-out", required=True, type=click.Path())
@click.option("--eval-out", required=True, type=click.Path())
def split(src, ratio, seed, train_out, eval_out):
    """Deterministic seeded shuffle + prefix split."""
    train_c, eval_c = corpus_split(read_corpus(src), ratio, seed)
    write_corpus(train_c, train_out)
    write_corpus(eval_c, eval_out)
    click.echo(f"split {len(train_c)}/{len(eval_c)}", err=True)


@cli.command("filter")
@click.argument("src", type=click.Path(exists=True))
@click.argument("dst", type=click.Path())
@click.option("--keep", required=True, help="Comma-separated field labels to keep.")
def filter_cmd(src, dst, keep):
    """Coarsen labels outside --keep to O."""
    fields = sort_fields(f.strip() for f in keep.split(",") if f.strip())
    write_corpus(filter_fields(read_corpus(src), fields), dst)


@cli.command("sample")
@click.argument("src", type=click.Path(exists=True))
@click.argument("dst", type=click.Path())
@click.option("--n", required=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
def sample_cmd(src, dst, n, seed):
    """Seeded uniform sample without replacement."""
    write_corpus(corpus_sample(read_corpus(src), n, seed), dst)


def _config_options(config, names=None):
    """A --flag per named field of a config dataclass (all fields by default),
    listed in that order, with the field's default; passed as keyword arguments."""
    defaults = {f.name: f.default for f in fields(config)}
    def decorate(command):
        for name in reversed(names or list(defaults)):  # click lists options bottom-up
            flag, default = "--" + name.replace("_", "-"), defaults[name]
            option = click.option(flag, default=default, show_default=True, type=type(default))
            command = option(command)
        return command
    return decorate


@cli.command()
@click.argument("src", type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path())
@_config_options(TrainConfig)
@_config_options(FeatureConfig, ("min_count", "window"))
@click.option("--no-gazetteers", is_flag=True)
@click.option("--gazetteer-dir", type=click.Path(exists=True),
              help="Directory of <name>.txt word lists replacing the builtin ones.")
def train(src, model_path, min_count, window, no_gazetteers, gazetteer_dir, **train_config):
    """Train a CRF model on a labeled corpus."""
    if no_gazetteers and gazetteer_dir:
        raise UsageError("--no-gazetteers and --gazetteer-dir contradict each other")
    gazetteers = {} if no_gazetteers else None
    if gazetteer_dir:
        gazetteers = {
            p.stem: load_gazetteer_file(p)
            for p in sorted(Path(gazetteer_dir).glob("*.txt"))
        }
        if not gazetteers:
            raise UsageError(f"no .txt word lists in {gazetteer_dir}")
    feature_config = FeatureConfig(window=window, gazetteers=gazetteers, min_count=min_count)
    model = crf_train(read_corpus(src), feature_config, TrainConfig(**train_config))
    save_model(model, model_path)
    click.echo(f"saved model to {model_path}", err=True)


@cli.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--in", "in_path", type=click.Path(exists=True),
              help="Raw reference strings, one per line (default stdin).")
@click.option("--out", "out_path", type=click.Path(), help="Default stdout.")
@click.option("--format", "out_format", type=click.Choice(["inline", "conll"]),
              default="inline", show_default=True)
def parse(model_path, in_path, out_path, out_format):
    """Label raw reference strings with a trained model."""
    model = load_model(model_path)
    lines = [line for line in map(str.strip, _read_lines(in_path)) if line]
    format_one = format_inline_xml if out_format == "inline" else format_conll
    # one decode chunk at a time, so that memory holds one chunk's references
    chunk = crf._DECODE_CHUNK
    with open(out_path, "w", encoding="utf-8") if out_path else contextlib.nullcontext() as out:
        for start in range(0, len(lines), chunk):
            insts = decode_many(model, lines[start : start + chunk])
            text = "".join(format_one(inst) + "\n" for inst in insts)
            if out:
                out.write(text)
            else:
                click.echo(text, nl=False)


@cli.command("eval")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--gold", "gold_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), help="Report CSV path.")
def eval_cmd(model_path, gold_path, out_path):
    """Evaluate a model against a gold corpus (table to stdout, CSV to --out)."""
    report = _evaluate_model(load_model(model_path), read_corpus(gold_path))
    click.echo(format_report_table(report, title=f"model={model_path} gold={gold_path}"))
    if out_path:
        write_report_csv(report, out_path)


def _experiment_command(name: str, run_plan, help_text: str) -> None:
    @cli.command(name, help=help_text)
    @click.argument("plan", type=click.Path(exists=True))
    @_config_options(TrainConfig)
    def command(plan, **train_config):
        run_plan(ExperimentPlan.from_json(plan), TrainConfig(**train_config))


_experiment_command("matrix", cross_matrix, "Cross train/eval matrix from a plan file.")
_experiment_command("curve", size_curve, "Training-size curve from a plan file.")
_experiment_command(
    "ablation", field_ablation, "Full-label vs reduced-label ablation from a plan file."
)


@cli.command("tokenize")
@click.option("--in", "in_path", type=click.Path(exists=True),
              help="One reference per line (default stdin).")
def tokenize_cmd(in_path):
    """Debug tokenizer: TSV of surface/start/end per token."""
    for line in _read_lines(in_path):
        for token in tokenize(line):
            click.echo(f"{token.surface}\t{token.start}\t{token.end}")
        click.echo("")


def run(argv: list[str] | None = None) -> int:
    """Dispatch argv and map errors onto the documented exit codes."""
    try:
        cli.main(args=argv, prog_name="refparse", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (UsageError, OSError) as exc:
        click.echo(f"usage error: {exc}", err=True)
        return 1
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except UnicodeDecodeError as exc:  # any text input: --in, stdin, records, styles, ...
        click.echo(f"data error: input is not UTF-8 text: {exc}", err=True)
        return 2
    except RefparseError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
