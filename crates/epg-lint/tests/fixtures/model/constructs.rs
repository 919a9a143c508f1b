//! Every construct `FileModel::build` extracts, in the shapes that have
//! tripped token-level parsers: pinned by `tests/model_golden.rs` against
//! `golden.txt`. Never compiled; the tail is deliberately unbalanced.

use epg_graph::Csr;
use epg_parallel::{Schedule, ThreadPool};
use std::fmt::Debug;

/// Strings and chars hold no delimiters: "fn x() {", '{', r#"}"#.
const BRACES: &str = "fn fake() { loop { } }";
const OPEN: char = '{';
const RAW: &str = r#"impl Fake for X { struct Y { a: u8 } }"#;

type Callback = fn(u32) -> bool;
type Hrtb = Box<dyn for<'a> Fn(&'a u32) -> &'a u32>;

pub struct Unit;
pub struct Pair(u32, *const u8);
pub struct Wrapper<T: Debug>(T, fn(u32));
pub struct Generic<'a, T: Iterator<Item = u32> + 'a, F: Fn() -> u32> {
    pub(crate) items: Arc<Mutex<Vec<T>>>,
    lock: RwLock<u32>,
    #[allow(dead_code)]
    cb: fn(u32) -> bool,
    tail: &'a [u8],
    done: Condvar,
    map: HashMap<u32, (u32, u32)>,
    f: F,
}

pub trait Kernel {
    fn run(&self, pool: &ThreadPool) -> u32;
    fn reset(
        &mut self,
        hint: Option<u32>,
    );
    fn default_rounds(&self) -> u32 {
        8
    }
}

impl<T: Debug, F: Fn() -> u32> Kernel for Generic<'_, T, F>
where
    T: Iterator<Item = u32>,
    for<'b> F: Fn() -> u32 + 'b,
{
    fn run(&self, pool: &ThreadPool) -> u32 {
        let total = found.for_ranges(pool, 8, Schedule::Static { chunk: None }, |mine, lo, hi| {
            for i in lo..hi {
                (self.f)();
                consume(i);
            }
        });
        pool.parallel_for::<Box<dyn Fn(usize)>>(4, sched, |v| {
            let inner = |x: u32| {
                loop {
                    if x > 0 {
                        break;
                    }
                }
            };
            inner(v as u32);
        });
        total.len() as u32
    }

    fn reset(&mut self, hint: Option<u32>) {
        let guard = self.lock.write();
        drop(guard);
    }
}

impl<F> Drop for Wrapper<F> where F: Debug {
    fn drop(&mut self) {}
}

impl epg_engine_api::Engine for Pair {}

fn returns_impl() -> impl Iterator<Item = u32> {
    std::iter::empty()
}

fn takes_impl(it: impl Iterator<Item = u32>, f: &impl Fn(u32)) -> u32 {
    it.map(|x| { f(x); x }).sum()
}

pub(in crate::model) fn nested_closures(g: &Csr, rec: &mut RunLog) {
    'outer: for round in 0..g.num_vertices() {
        rec.iteration(round);
        while let Some(v) = queue.pop() {
            g.neighbors(v).iter().for_each(|&u| {
                let relax = |w: u32| -> bool { w < u };
                if relax(u) { continue 'outer; }
            });
        }
    }
    let hot = |pool: &ThreadPool| pool.region(|ctx| { ctx.barrier(); });
    fn helper<const N: usize>(x: [u8; N]) -> usize { x.len() }
    println!("{}", helper([0u8; 4]));
    epg_trace::Event::new(epg_graph::oracle::bfs(g, 0));
    Self::reset();
    crate::model::Code::new(&[]);
    let epg_local = 1;
    not_epg_graph::x();
}

#[derive(Debug)]
#[allow(clippy::all)]
#[cfg(test)]
#[allow(unused)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn a_test() {
        assert!(takes_impl(std::iter::empty(), &|_| {}) == 0);
    }

    #[cfg(test)]
    use std::collections::BTreeMap;
}

#[test] fn one_line_test() { x.unwrap(); } fn after_test() {}

#[cfg(test)]
impl Unit {
    fn only_in_tests() {}
}

struct Unfinished<T> {
    a: T,
    b: Vec<u32
}

fn unbalanced_tail(pool: &ThreadPool) {
    loop {
        pool.parallel_reduce_ranges(n, s, id, |lo, hi| {
            for x in xs {
                step(x);
    impl Tail for Open {
        struct Inner { x: u32,
