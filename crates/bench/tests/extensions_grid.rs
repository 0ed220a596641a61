//! `extensions_grid` is kept by hand beside the extension figures, so
//! it is checked against them: after prefetching it, building every
//! figure in `EXTENSIONS` adds no sweep to the cache. A figure that
//! reads a sweep the grid does not list would otherwise run it on
//! demand, outside the target's one parallel batch.

use bench::figures::{extensions_grid, EXTENSIONS};
use bench::{FigureConfig, FigureRunner};

#[test]
fn extension_figures_read_only_the_prefetched_grid() {
    let mut runner = FigureRunner::new(FigureConfig {
        rates: vec![600.0],
        conns: 200,
        seed: 42,
    })
    .with_jobs(2);
    runner.verbose = false;
    let grid = extensions_grid();
    runner.prefetch(&grid);
    let cached = |r: &FigureRunner| r.cached_sweeps().map(|(&k, _)| k).collect::<Vec<_>>();
    let prefetched = cached(&runner);
    assert_eq!(
        prefetched.len(),
        grid.len(),
        "extensions_grid lists a sweep twice"
    );
    for (name, figure) in EXTENSIONS {
        assert!(!figure(&mut runner).is_empty(), "{name} built no figure");
        let extra: Vec<_> = cached(&runner)
            .into_iter()
            .filter(|k| !prefetched.contains(k))
            .map(|(_, kind, inactive)| format!("{} at load {inactive}", kind.label()))
            .collect();
        assert!(
            extra.is_empty(),
            "{name} ran sweeps extensions_grid does not list: {extra:?}"
        );
    }
}
