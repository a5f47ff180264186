//! Reproduces Figure 2 of the paper: average pages read per spatial query
//! for the five physical designs of the CarTel case study.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rodentstore_bench --bin figure2 [observations] [queries] [page_size]
//! ```
//!
//! Defaults: 200,000 observations, 200 queries, 1024-byte pages (a 50×
//! scaled-down version of the paper's 10M-observation / ~1 KB-page setup;
//! the relative ordering and the orders-of-magnitude gaps are what the
//! reproduction targets, not the absolute page counts). An argument that is
//! not a plain number prints the usage line and exits non-zero.

use rodentstore_bench::{format_results, run_figure2, Figure2Config};

const USAGE: &str = "usage: figure2 [observations] [queries] [page_size]";

/// Reads the positional arguments over the defaults; any argument that is
/// not an unsigned integer, or one too many, is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Figure2Config, String> {
    let mut config = Figure2Config::default();
    let mut args = args.into_iter();
    let slots = [
        &mut config.observations,
        &mut config.queries,
        &mut config.page_size,
    ];
    // `zip` asks `slots` first, so an argument past the third stays in `args`.
    for (slot, arg) in slots.into_iter().zip(args.by_ref()) {
        *slot = arg
            .parse()
            .map_err(|_| format!("{arg:?} is not an unsigned integer"))?;
    }
    if let Some(extra) = args.next() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    Ok(config)
}

fn main() {
    let config = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("figure2: {message}\n{USAGE}");
        std::process::exit(2);
    });

    eprintln!(
        "building designs over {} observations (this renders 4 layouts plus an R-tree)...",
        config.observations
    );
    let results = run_figure2(&config);
    print!("{}", format_results(&config, &results));

    // Paper reference values for context (10M observations, ~1 KB pages).
    println!();
    println!("paper (Figure 2, 10M observations): N1=206064  N2=82430  N3=1792  N4=771  rtree=15780 pages/query");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Figure2Config, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn positional_numbers_override_the_defaults_in_order() {
        let defaults = Figure2Config::default();
        let config = parse(&[]).unwrap();
        assert_eq!(
            (config.observations, config.queries, config.page_size),
            (defaults.observations, defaults.queries, defaults.page_size)
        );
        let config = parse(&["20000", "50"]).unwrap();
        assert_eq!((config.observations, config.queries), (20_000, 50));
        assert_eq!(config.page_size, defaults.page_size);
        let config = parse(&["20000", "50", "2048"]).unwrap();
        assert_eq!(config.page_size, 2048);
    }

    #[test]
    fn unparsable_or_extra_arguments_are_errors() {
        assert!(parse(&["20k"]).unwrap_err().contains("\"20k\""));
        assert!(parse(&["20000", "-5"]).is_err());
        assert!(parse(&["20000", "50", "1024", "7"])
            .unwrap_err()
            .contains("unexpected argument"));
    }
}
