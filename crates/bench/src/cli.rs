//! Shared flag handling for the crate's binaries (`repro`, `perfbench`):
//! usage errors exit 2, numeric flags must be finite and strictly positive
//! (zero/negative scales used to slip through and silently produce
//! degenerate datasets), count flags (`--iters`) must be integers ≥ 1.
//! The `try_*` functions hold the validation policy and are unit-tested;
//! the exiting wrappers route failures through [`usage_error`].

/// Print `msg` plus the binary's usage text and exit 2.
pub fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("{msg}\n\n{usage}");
    std::process::exit(2);
}

/// Validate a numeric flag value that must be finite and > 0.
pub fn try_parse_positive(flag: &str, raw: &str) -> Result<f64, String> {
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("bad {flag} (expected a number)"))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!("{flag} must be a positive number, got {raw}"));
    }
    Ok(v)
}

/// Parse a numeric flag value that must be finite and > 0.
pub fn parse_positive(flag: &str, raw: &str, usage: &str) -> f64 {
    try_parse_positive(flag, raw).unwrap_or_else(|msg| usage_error(&msg, usage))
}

/// Validate a numeric flag value that must be finite and ≥ 0
/// (`--tolerance 0` is the exact-wall-time gate).
pub fn try_parse_nonnegative(flag: &str, raw: &str) -> Result<f64, String> {
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("bad {flag} (expected a number)"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{flag} must be a non-negative number, got {raw}"));
    }
    Ok(v)
}

/// Parse a numeric flag value that must be finite and ≥ 0.
pub fn parse_nonnegative(flag: &str, raw: &str, usage: &str) -> f64 {
    try_parse_nonnegative(flag, raw).unwrap_or_else(|msg| usage_error(&msg, usage))
}

/// Validate a count flag value (`--iters`): an integer ≥ 1.
/// Zero, negatives, fractions and non-numbers are all rejected.
pub fn try_parse_count(flag: &str, raw: &str) -> Result<usize, String> {
    let v: u64 = raw
        .parse()
        .map_err(|_| format!("bad {flag} (expected a positive integer)"))?;
    if v == 0 {
        return Err(format!("{flag} must be ≥ 1, got {raw}"));
    }
    Ok(v as usize)
}

/// Parse a count flag value (an integer ≥ 1).
pub fn parse_count(flag: &str, raw: &str, usage: &str) -> usize {
    try_parse_count(flag, raw).unwrap_or_else(|msg| usage_error(&msg, usage))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_flags_accept_positive_finite_numbers() {
        assert_eq!(try_parse_positive("--scale", "0.5"), Ok(0.5));
        assert_eq!(try_parse_positive("--scale", "2"), Ok(2.0));
        assert_eq!(try_parse_positive("--scale", "1e-3"), Ok(1e-3));
    }

    #[test]
    fn scale_flags_reject_zero_negative_and_garbage() {
        for bad in ["0", "0.0", "-1", "-0.25", "nan", "inf", "-inf", "x", ""] {
            let err = try_parse_positive("--scale", bad)
                .expect_err(&format!("--scale {bad:?} must be rejected"));
            assert!(err.contains("--scale"), "message names the flag: {err}");
        }
    }

    #[test]
    fn iters_flag_accepts_integers_from_one() {
        assert_eq!(try_parse_count("--iters", "1"), Ok(1));
        assert_eq!(try_parse_count("--iters", "2"), Ok(2));
        assert_eq!(try_parse_count("--iters", "64"), Ok(64));
    }

    #[test]
    fn iters_flag_rejects_zero_fractions_and_garbage() {
        for bad in ["0", "-2", "1.5", "2.0", "two", "", " 4", "+0"] {
            let err = try_parse_count("--iters", bad)
                .expect_err(&format!("--iters {bad:?} must be rejected"));
            assert!(err.contains("--iters"), "message names the flag: {err}");
        }
    }

    #[test]
    fn tolerance_flag_accepts_zero_and_positive() {
        assert_eq!(try_parse_nonnegative("--tolerance", "0"), Ok(0.0));
        assert_eq!(try_parse_nonnegative("--tolerance", "150"), Ok(150.0));
        assert_eq!(try_parse_nonnegative("--tolerance", "2.5"), Ok(2.5));
        for bad in ["-1", "nan", "inf", "x", ""] {
            let err = try_parse_nonnegative("--tolerance", bad)
                .expect_err(&format!("--tolerance {bad:?} must be rejected"));
            assert!(err.contains("--tolerance"), "message names the flag: {err}");
        }
    }

    #[test]
    fn iters_flag_shares_the_count_policy() {
        assert_eq!(try_parse_count("--iters", "3"), Ok(3));
        assert!(try_parse_count("--iters", "0").is_err());
        assert!(try_parse_count("--iters", "2.5").is_err());
    }
}
