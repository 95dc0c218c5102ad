#![warn(missing_docs)]
//! Property tests over a recorded choice sequence, shrunk on failure.
//!
//! A [`Gen`] records each value it draws as one `u64` choice, its offset
//! from the low end of its range. [`check`] shrinks a failing case's choices
//! with Hypothesis' reducer (MacIver & Donaldson, ECOOP 2020): delete chunks
//! as ddmin does (Zeller & Hildebrandt, TSE 2002), then lower each choice by
//! binary search. It prints the minimal sequence for [`replay`].

use std::cell::Cell;
use std::ops::{Bound::Excluded, Bound::Included, RangeBounds};
use std::panic::{self, AssertUnwindSafe};

use corm_sim_core::rng::{stream_rng, DetRng};
use rand::Rng;

/// A property's inputs: a case's random stream, or (no `rng`) a replay.
pub struct Gen {
    rng: Option<DetRng>,
    replay: Vec<u64>,
    choices: Vec<u64>,
}

/// A property: returning `Err` or panicking fails it.
type Prop<'a> = &'a dyn Fn(&mut Gen) -> Result<(), String>;

/// `r`'s inclusive bounds, widened.
fn bounds<T: Copy + TryInto<u64>>(r: &impl RangeBounds<T>) -> (u64, u64) {
    let wide = |v: &T| (*v).try_into().ok().expect("a bound past u64");
    match (r.start_bound(), r.end_bound()) {
        (Included(lo), Included(hi)) if wide(lo) <= wide(hi) => (wide(lo), wide(hi)),
        (Included(lo), Excluded(hi)) if wide(lo) < wide(hi) => (wide(lo), wide(hi) - 1),
        _ => panic!("a range needs a start and an end past it"),
    }
}

impl Gen {
    fn new(rng: Option<DetRng>, replay: &[u64]) -> Gen {
        Gen { rng, replay: replay.to_vec(), choices: Vec::new() }
    }

    /// Records a choice in `0..=max`: drawn by `random`, or else the next one
    /// replayed (lowered to `max`), or 0 once the replay runs out.
    fn choose(&mut self, max: u64, random: impl FnOnce(&mut DetRng) -> u64) -> u64 {
        let c = match &mut self.rng {
            Some(rng) => random(rng),
            None => self.replay.get(self.choices.len()).map_or(0, |&c| c.min(max)),
        };
        self.choices.push(c);
        c
    }

    /// A value of `r`, uniformly.
    pub fn range<T: Copy + TryInto<u64> + TryFrom<u64>>(&mut self, r: impl RangeBounds<T>) -> T {
        let (lo, hi) = bounds(&r);
        let c = self.choose(hi - lo, |rng| rng.gen_range(0..=hi - lo));
        T::try_from(lo + c).ok().expect("a choice inside the range")
    }

    /// `false` or `true`, evenly.
    pub fn bool(&mut self) -> bool {
        self.range(0..=1u8) == 1
    }

    /// An index into `weights`, drawn in proportion to them.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        self.choose(weights.len() as u64 - 1, |rng| {
            let mut x = rng.gen_range(0..weights.iter().sum::<u32>());
            weights.iter().take_while(|&&w| x.checked_sub(w).map(|rest| x = rest).is_some()).count()
                as u64
        }) as usize
    }

    /// `f`'s draws, as many as a length uniform over `n`. Each one past the
    /// minimum follows a "one more?" choice, so it deletes with its choices.
    pub fn vec<T>(&mut self, n: impl RangeBounds<usize>, f: impl Fn(&mut Gen) -> T) -> Vec<T> {
        let (lo, hi) = bounds(&n);
        let target = self.rng.as_mut().map_or(0, |rng| rng.gen_range(lo..=hi));
        let mut out = Vec::new();
        loop {
            let n = out.len() as u64;
            if n == hi || n >= lo && self.choose(1, |_| (n < target) as u64) == 0 {
                return out;
            }
            out.push(f(self));
        }
    }
}

// While a property runs, the panic hook keeps its message here unprinted.
thread_local!(static CAUGHT: Cell<Option<String>> = const { Cell::new(None) });

/// Runs `prop` once; on failure, returns the message and the choices made,
/// less trailing zeros (a replay reads them back anyway).
fn run(prop: Prop, mut g: Gen) -> Option<(String, Vec<u64>)> {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let hook = panic::take_hook();
        panic::set_hook(Box::new(move |info| match CAUGHT.take() {
            Some(_) => CAUGHT.set(Some(info.to_string())),
            None => hook(info),
        }));
    });
    CAUGHT.set(Some(String::new()));
    let out = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut g)));
    let caught = CAUGHT.take().unwrap_or_default();
    let msg = out.unwrap_or(Err(caught)).err()?;
    while g.choices.last() == Some(&0) {
        g.choices.pop();
    }
    Some((msg, g.choices))
}

/// Shrinks a failure. Any failing edit of the best sequence is smaller than
/// it (shorter, or lower at its first difference), so each one is kept.
fn shrink(prop: Prop, mut best: (String, Vec<u64>)) -> (String, Vec<u64>) {
    let fails = |best: &mut (String, Vec<u64>), edit: &dyn Fn(&mut Vec<u64>)| {
        let mut c = best.1.clone();
        edit(&mut c);
        run(prop, Gen::new(None, &c)).map(|f| *best = f).is_some()
    };
    loop {
        let before = best.1.clone();
        // Delete chunks of halving length: long ones at multiples of it, as
        // ddmin does; up to eight choices (one element) at every offset.
        let mut k = best.1.len().div_ceil(2);
        while k > 0 {
            let mut i = 0;
            while i + k <= best.1.len() {
                if !fails(&mut best, &|c| drop(c.drain(i..i + k))) {
                    i += if k > 8 { k } else { 1 };
                }
            }
            k /= 2;
        }
        // Lower each choice: to 0 if that still fails, else by binary search.
        for i in 0..best.1.len() {
            let mut lo = 0; // every value below `lo` passes
            while i < best.1.len() && lo < best.1[i] {
                let mid = if lo == 0 { 0 } else { lo + (best.1[i] - lo) / 2 };
                if !fails(&mut best, &|c| c[i] = mid) {
                    lo = mid + 1;
                }
            }
        }
        if best.1 == before {
            return best;
        }
    }
}

/// Runs `prop` on `cases` cases; panics with the first failure, shrunk. Case
/// `k` draws from `stream_rng(seed, k)`, the seed an FNV-1a hash of `prop`'s
/// type name, so a call site draws the same cases on every run.
pub fn check<P: Fn(&mut Gen) -> Result<(), String>>(cases: u32, prop: P) {
    let seed = std::any::type_name::<P>()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
    for case in 0..cases {
        if let Some(first) = run(&prop, Gen::new(Some(stream_rng(seed, case as u64)), &[])) {
            let ((msg, choices), first) = (shrink(&prop, first.clone()), first.0);
            panic!(
                "property failed on case {case} of {cases} (seed {seed:#x}): {first}\n\
                 shrunk, it fails with: {msg}\n\
                 rerun it from a plain #[test] with corm_check::replay(&{choices:?}, prop)"
            );
        }
    }
}

/// Reruns `prop` on a choice sequence [`check`] printed; panics if it fails.
pub fn replay(choices: &[u64], prop: impl Fn(&mut Gen) -> Result<(), String>) {
    if let Err(msg) = prop(&mut Gen::new(None, choices)) {
        panic!("{msg}");
    }
}

/// Fails the property unless `cond` holds, with a message or `cond`'s text.
#[macro_export]
macro_rules! ensure {
    ($cond:expr) => { $crate::ensure!($cond, "assertion failed: {}", ::std::stringify!($cond)) };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Fails the property unless `left == right`, printing both sides.
#[macro_export]
macro_rules! ensure_eq {
    ($left:expr, $right:expr $(, $($fmt:tt)+)?) => {
        match (&$left, &$right) {
            (l, r) => $crate::ensure!(*l == *r, "{} != {}: {l:?} != {r:?}{}", ::std::stringify!($left),
                ::std::stringify!($right), ::std::string::String::new() $(+ ": " + &::std::format!($($fmt)+))?),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_respect_bounds() {
        check(32, |g| {
            let (x, y, z) = (g.range(3usize..17), g.range(0u64..=5), g.range(250u8..=u8::MAX));
            let _ = g.bool();
            ensure!((3..17).contains(&x));
            ensure!(y <= 5);
            ensure!(z >= 250, "{z} below 250");
            Ok(())
        });
    }

    #[test]
    fn tuples_and_vec() {
        check(32, |g| {
            let ops = g.vec(1..30, |g| (g.bool(), g.range(0u8..4)));
            ensure!(!ops.is_empty() && ops.len() < 30);
            for (_flag, v) in ops {
                ensure!(v < 4);
            }
            Ok(())
        });
    }

    #[test]
    fn oneof_and_map() {
        check(32, |g| {
            let tag = [8u32, 12, 16][g.weighted(&[3, 0, 1])];
            let n = g.range(0u64..100) * 2;
            ensure!(tag == 8 || tag == 16, "weight 0 drawn: {tag}");
            ensure_eq!(n % 2, 0);
            Ok(())
        });
    }

    #[test]
    fn early_return_ok_is_supported() {
        check(32, |g| {
            let flag = g.bool();
            if flag {
                return Ok(());
            }
            ensure!(!flag);
            Ok(())
        });
    }

    fn draw(g: &mut Gen) -> Vec<u64> {
        g.vec(5..10, |g| g.range(0u64..1000))
    }

    #[test]
    fn generation_is_deterministic() {
        let random = |case| Gen::new(Some(stream_rng(7, case)), &[]);
        let (mut a, mut b) = (random(4), random(4));
        assert_eq!(draw(&mut a), draw(&mut b));
        assert_ne!(draw(&mut random(5)), draw(&mut random(4)));
        // The recorded choices replay to the same values.
        assert_eq!(draw(&mut Gen::new(None, &a.choices)), draw(&mut random(4)));
    }

    /// "Every element of a `vec` of `0..1000` is < 100", which is false.
    fn planted(g: &mut Gen) -> Result<(), String> {
        let v = g.vec(0..50, |g| g.range(0u32..1000));
        match v.iter().find(|&&x| x >= 100) {
            Some(x) => Err(format!("{x} in {v:?}")),
            None => Ok(()),
        }
    }

    /// `check`'s report on `prop`, and the choice sequence it prints.
    fn report(prop: impl Fn(&mut Gen) -> Result<(), String>) -> (String, Vec<u64>) {
        let report = panic::catch_unwind(AssertUnwindSafe(|| check(100, prop)));
        let report = *report.expect_err("the property fails").downcast::<String>().unwrap();
        let literal = report.split("replay(&[").nth(1).and_then(|s| s.split(']').next()).unwrap();
        let choices = literal.split(", ").filter(|c| !c.is_empty()).map(|c| c.parse().unwrap());
        let choices = choices.collect();
        (report, choices)
    }

    /// The one-element vector `[100]`: its "one more?" choice and its value.
    const MINIMUM: [u64; 2] = [1, 100];

    #[test]
    fn a_planted_failure_shrinks_to_its_minimum() {
        let (report, choices) = report(planted);
        assert_eq!(choices, MINIMUM, "{report}");
        assert!(report.contains("it fails with: 100 in [100]\n"), "{report}");
        let mut g = Gen::new(None, &choices);
        assert_eq!(g.vec(0..50, |g| g.range(0u32..1000)), [100]);
    }

    #[test]
    fn a_panicking_property_shrinks_to_the_same_minimum() {
        let (report, choices) = report(|g| {
            let v = g.vec(0..50, |g| g.range(0u32..1000));
            assert!(v.iter().all(|&x| x < 100), "{v:?}");
            Ok(())
        });
        assert_eq!(choices, MINIMUM, "{report}");
        // The message names where the property panicked.
        assert!(report.contains("it fails with: panicked at "), "{report}");
        assert!(report.contains(":\n[100]\n"), "{report}");
    }

    #[test]
    fn the_printed_literal_replays_the_failure() {
        let (_, choices) = report(planted);
        assert!(panic::catch_unwind(|| replay(&choices, planted)).is_err());
        // Without its value the element replays as 0, which passes.
        replay(&choices[..1], planted);
    }
}
