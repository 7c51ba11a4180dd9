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
from .acquisition import (
    calibration_offset_s,
    simulate_background,
    simulate_frames,
    simulate_histogram,
)
from .localization import _check_k_targets, _fused_log, _peak_bands
from .processing import TimeWindow, estimate_background_median
from .studies import (
    PipelineError,
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


@main.command()
@click.argument("scene_file", type=click.Path())
@click.option("--out", required=True, type=click.Path(), help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the acquisition seed.")
@click.option("--frames", type=int, default=1, show_default=True,
              help="Signal frames per pixel (several enable a median background).")
@_exit_codes()
def simulate(scene_file, out, seed, frames):
    """Simulate signal and background histograms for SCENE_FILE."""
    scene, params, _grid = sceneio.load_scene(scene_file)
    if seed is not None:
        params = dataclasses.replace(params, rng_seed=seed)
    if frames < 1:
        raise ValueError("--frames must be >= 1")

    # Every file the run writes, in write order, grouped with the call that
    # makes their histograms: the manifest lists exactly the names written.
    groups = []
    for i in range(scene.num_pixels):
        if frames == 1:
            groups.append(([f"pixel{i:02d}_signal.csv"],
                           lambda i=i: [simulate_histogram(scene, i, params)]))
        else:
            groups.append(([f"pixel{i:02d}_frame{k:02d}.csv" for k in range(frames)],
                           lambda i=i: simulate_frames(scene, i, params, frames)))
        groups.append(([f"pixel{i:02d}_background.csv"],
                       lambda i=i: [simulate_background(scene, i, params)]))
    outputs = [name for names, _ in groups for name in names]
    out_dir = Path(out)
    with sceneio.run_manifest(out_dir, scene_file, params, outputs):
        for names, simulate_group in groups:
            for name, hist in zip(names, simulate_group(), strict=True):
                sceneio.write_histogram_csv(out_dir / name, hist)
    click.echo(f"wrote {len(outputs)} histogram files to {out_dir}", file=sys.stdout)


def _read_pixel_histograms(hist_dir: Path, num_pixels: int, background_mode: str):
    """Collect (signal, background) per pixel from a simulate output directory.

    Also returns the pixels whose background is the median of their frames.
    """
    signals, backgrounds, median_pixels = [], [], []
    for i in range(num_pixels):
        single = hist_dir / f"pixel{i:02d}_signal.csv"
        if single.exists():
            frames = [sceneio.read_histogram_csv(single)]
        else:
            frames = [sceneio.read_histogram_csv(f)
                      for f in sorted(hist_dir.glob(f"pixel{i:02d}_frame*.csv"))]
            if not frames:
                raise ValueError(f"no signal histogram for pixel {i} in {hist_dir}")
        bg_file = hist_dir / f"pixel{i:02d}_background.csv"
        mode = background_mode
        if mode == "auto":
            mode = "file" if bg_file.exists() else "median"
        if mode == "file":
            if not bg_file.exists():
                raise ValueError(f"missing background file {bg_file}")
            background = sceneio.read_histogram_csv(bg_file)
        else:
            if len(frames) < 3:
                raise ValueError(f"median background needs >= 3 signal frames for pixel {i}, "
                                 f"got {len(frames)}")
            background = estimate_background_median(frames)
            median_pixels.append(i)
        signals.append(frames[0])
        backgrounds.append(background)
    return signals, backgrounds, median_pixels


@main.command()
@click.argument("scene_file", type=click.Path())
@click.option("--hist-dir", type=click.Path(), default=None,
              help="Directory of simulate output; omit to simulate in-process.")
@click.option("--out", required=True, type=click.Path(), help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the acquisition seed.")
@click.option("--grid-res", type=float, default=None, help="Override grid resolution (m).")
@click.option("--targets", type=int, default=1, show_default=True, help="Targets to resolve.")
@click.option("--background", type=click.Choice(["auto", "file", "median"]), default="auto",
              show_default=True, help="Background source when reading histograms.")
@click.option("--window", type=str, default=None,
              help="Crop window 'start,end' in seconds (default: derived from the grid).")
@click.option("--maps", "write_maps", is_flag=True, help="Also write probability-map CSVs.")
@_exit_codes()
def reconstruct(scene_file, hist_dir, out, seed, grid_res, targets, background,
                window, write_maps):
    """Localize hidden targets from histograms (read from --hist-dir or simulated)."""
    scene, params, grid = sceneio.load_scene(scene_file)
    if seed is not None:
        params = dataclasses.replace(params, rng_seed=seed)
    if grid_res is not None:
        grid = dataclasses.replace(grid, resolution=grid_res)
    _check_k_targets(targets)
    win = None
    if window is not None:
        try:
            start, end = (float(v) for v in window.split(","))
            win = TimeWindow(start, end)
        except ValueError as exc:
            raise ValueError(f"bad --window: {exc}") from exc

    median_pixels = []
    if hist_dir is not None:
        signals, backgrounds, median_pixels = _read_pixel_histograms(
            Path(hist_dir), scene.num_pixels, background)
    else:
        signals, backgrounds = simulate_scene(scene, params)
    result = reconstruct_from_histograms(
        signals, backgrounds, scene.laser_spot, list(scene.pixels), grid, params,
        offset_s=calibration_offset_s(scene, params),
        k_targets=targets, window=win,
    )
    blind = [i for i in median_pixels if i not in result.used_pixels]
    if blind:
        result.notes.append(
            f"median background (pixels {', '.join(map(str, blind))}): a median over "
            "frames removes any target that stays still across them, so 'no peak' "
            "does not mean nothing is there"
        )

    # Every map is built before the manifest lists it. A track's fused map is
    # localize's, from its detections' bands summed as association sums them;
    # localize is looked up on its module, where tracing wrappers sit.
    maps = {}
    if write_maps:
        used = result.used_pixels
        bands, _ = _peak_bands(result.peaks_per_pixel, scene.laser_spot,
                               [scene.pixels[pix] for pix in used], grid)
        for track, det in zip(result.tracks, result.detections):
            log_density = _fused_log(lambda pair: bands[pair].log_values, det)
            _, maps[f"fused_map_{track.target_label}.csv"] = localization.localize(
                log_density, grid, track.position, track.target_label)
        for (i, j), band in bands.items():
            maps[f"pixel{used[i]:02d}_peak{j}_map.csv"] = band
    out_dir = Path(out)
    with sceneio.run_manifest(out_dir, scene_file, params, ["tracks.json", *maps]):
        sceneio.write_tracks_json(out_dir / "tracks.json", result.tracks,
                                  result.notes, result.status)
        for name, pmap in maps.items():
            sceneio.write_map_csv(out_dir / name, pmap)

    if not result.tracks:
        click.echo("no target found", file=sys.stderr)
        for note in result.notes:
            click.echo(f"  {note}", file=sys.stderr)
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
