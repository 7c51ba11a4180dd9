"""Command-line surface: simulate, reconstruct, sweep.

Exit codes: 0 ok, 1 I/O failure, 2 invalid input, 3 no target found.

Every echo names its stream. Without ``file=``, click looks the stream up in
a cache keyed by ``sys.stdout``/``sys.stderr`` whose entries never die, so
each in-process run on fresh streams (click's CliRunner) would leak them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from pathlib import Path

import click

from . import localization, sceneio
from .acquisition import calibration_offset_s
from .studies import (
    PipelineError,
    check_retrieval,
    reconstruct_from_histograms,
    run_baseline_sweep,
    simulate_scene,
)

EXIT_IO = 1
EXIT_INVALID = 2
EXIT_NO_TARGET = 3


@contextlib.contextmanager
def _exit_codes():
    """The one map from a failure to an exit code; every command runs inside it.

    SceneFormatError is a ValueError, so a malformed document exits 2 too.
    """
    try:
        yield
    except (OSError, ValueError, PipelineError) as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_IO if isinstance(exc, OSError) else EXIT_INVALID)


@click.group()
def main():
    """Hidden-target localization from single-photon flight-time histograms."""


# The two histograms simulate writes per pixel and reconstruct --hist-dir reads.
_KINDS = ("signal", "background")


def _histogram_name(pixel: int, kind: str) -> str:
    return f"pixel{pixel:02d}_{kind}.csv"


@main.command()
@click.argument("scene_file", type=click.Path())
@click.option("--out", required=True, type=click.Path(), help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the acquisition seed.")
@_exit_codes()
def simulate(scene_file, out, seed):
    """Simulate signal and background histograms for SCENE_FILE."""
    scene, params, _ = sceneio.load_scene(scene_file)
    if seed is not None:
        params = dataclasses.replace(params, rng_seed=seed)

    # The manifest lists exactly the names written, in write order.
    outputs = [_histogram_name(i, kind) for i in range(scene.num_pixels) for kind in _KINDS]
    out_dir = Path(out)
    with sceneio.run_manifest(out_dir, scene_file, params, outputs):
        signals, backgrounds = simulate_scene(scene, params)
        for i, pair in enumerate(zip(signals, backgrounds)):
            for kind, hist in zip(_KINDS, pair):
                sceneio.write_histogram_csv(out_dir / _histogram_name(i, kind), hist)
    click.echo(f"wrote {len(outputs)} histogram files to {out_dir}", file=sys.stdout)


def _read_pixel_histograms(hist_dir: Path, num_pixels: int):
    """Collect (signal, background) per pixel from a simulate output directory.

    A file whose ``# pixel=`` header is not the pixel its name gives is refused.
    """
    signals, backgrounds = [], []
    for i in range(num_pixels):
        for kind, hists in zip(_KINDS, (signals, backgrounds)):
            path = hist_dir / _histogram_name(i, kind)
            if not path.exists():
                raise ValueError(f"no {kind} histogram for pixel {i} in {hist_dir}: "
                                 f"{path.name} is missing")
            hist = sceneio.read_histogram_csv(path)
            if hist.pixel_index != i:
                raise ValueError(f"{path}: header pixel={hist.pixel_index} is not the "
                                 f"pixel {i} its name gives")
            hists.append(hist)
    return signals, backgrounds


@main.command()
@click.argument("scene_file", type=click.Path())
@click.option("--hist-dir", type=click.Path(), default=None,
              help="Directory of simulate output; omit to simulate in-process.")
@click.option("--out", required=True, type=click.Path(), help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the acquisition seed.")
@click.option("--grid-res", type=float, default=None, help="Override grid resolution (m).")
@click.option("--targets", type=int, default=1, show_default=True, help="Targets to resolve.")
@click.option("--maps", "write_maps", is_flag=True, help="Also write each track's fused-map CSV.")
@_exit_codes()
def reconstruct(scene_file, hist_dir, out, seed, grid_res, targets, write_maps):
    """Localize hidden targets from histograms (read from --hist-dir or simulated)."""
    scene, params, grid = sceneio.load_scene(scene_file)
    if seed is not None:
        params = dataclasses.replace(params, rng_seed=seed)
    if grid_res is not None:
        grid = dataclasses.replace(grid, resolution=grid_res)
    check_retrieval(params, targets)

    if hist_dir is not None:
        signals, backgrounds = _read_pixel_histograms(Path(hist_dir), scene.num_pixels)
    else:
        signals, backgrounds = simulate_scene(scene, params)
    result = reconstruct_from_histograms(
        signals, backgrounds, scene.laser_spot, list(scene.pixels), grid, params,
        offset_s=calibration_offset_s(scene, params), k_targets=targets,
    )

    # Every map is built before the manifest lists it.
    maps = {}
    if write_maps:
        fused = localization.fused_maps(result.peaks_per_pixel, scene.laser_spot,
                                        list(scene.pixels), grid, result.tracks)
        maps = {f"fused_map_{label}.csv": m for label, m in fused.items()}
    out_dir = Path(out)
    with sceneio.run_manifest(out_dir, scene_file, params, ["tracks.json", *maps],
                              grid=dataclasses.asdict(grid), targets=targets):
        sceneio.write_tracks_json(out_dir / "tracks.json", result)
        for name, pmap in maps.items():
            sceneio.write_map_csv(out_dir / name, pmap)

    if result.status != "ok":
        headline = "no target found" if result.status == "no_target" else (
            "ambiguous association: two assignments score within "
            f"{localization.AMBIGUITY_MARGIN:.0%} of each other")
        click.echo(headline, file=sys.stderr)
        for note in result.notes:
            click.echo(f"  {note}", file=sys.stderr)
    if not result.tracks:
        sys.exit(EXIT_NO_TARGET)
    for t in result.tracks:
        click.echo(
            f"{t.target_label}: x={t.position[0]:.3f} m y={t.position[1]:.3f} m "
            f"(sigma {t.sigma_x:.3f}, {t.sigma_y:.3f})", file=sys.stdout,
        )


@main.command()
@click.argument("config_file", type=click.Path())
@click.option("--out", required=True, type=click.Path(), help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@_exit_codes()
def sweep(config_file, out, seed):
    """Run the two-detector baseline sweep described by CONFIG_FILE."""
    config = sceneio.load_sweep_config(config_file)
    if seed is not None:
        config = dataclasses.replace(
            config, acquisition=dataclasses.replace(config.acquisition, rng_seed=seed)
        )
    out_dir = Path(out)
    with sceneio.run_manifest(out_dir, config_file, config.acquisition, ["sweep.csv"]):
        result = run_baseline_sweep(config)
        sceneio.write_sweep_csv(out_dir / "sweep.csv", result)
    click.echo(f"wrote {len(result.rows)} sweep rows to {out_dir / 'sweep.csv'}",
               file=sys.stdout)


if __name__ == "__main__":
    main()
