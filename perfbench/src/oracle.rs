//! The in-process oracle: what the server must answer, computed by
//! calling the advisor directly on the backend the server reads, with
//! no session, cache or codec in between. Served advice must equal
//! `json::encode_advice(&Advisor::advise(ctx.canonicalized()))`.

use crate::streams::{pick, Script};
use charles_core::{Advice, Advisor};
use charles_sdl::{parse_query, Query};
use charles_serve::json::encode_advice;
use charles_store::Backend;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

pub struct Oracle {
    backend: Arc<dyn Backend>,
}

/// One advised context: its canonical key, its advice and the JSON
/// the server must serve for it.
pub struct Ctx {
    pub key: String,
    pub advice: Advice,
    pub json: String,
    /// Wall time of the oracle's `Advisor::advise` call.
    pub advise_ms: f64,
}

impl Oracle {
    pub fn new(backend: Arc<dyn Backend>) -> Oracle {
        Oracle { backend }
    }

    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    pub fn parse(&self, sdl: &str) -> Result<Query, String> {
        parse_query(sdl, self.backend.schema()).map_err(|e| format!("parse {sdl}: {e}"))
    }

    /// The advice-cache key of the context `sdl`: the query after static
    /// analysis's normalisation, canonicalized.
    pub fn cache_key(&self, sdl: &str) -> Result<String, String> {
        let q = self.parse(sdl)?;
        let report = charles_sdl::analyze(&q, self.backend.schema());
        let q = report.normalized().cloned().unwrap_or(q);
        Ok(q.canonicalized().to_string())
    }

    /// Advise on `query` exactly as the server's cache does.
    pub fn advise(&self, query: &Query) -> Result<Ctx, String> {
        let canonical = query.canonicalized();
        let t = Instant::now();
        let advice = Advisor::new(self.backend())
            .advise(canonical.clone())
            .map_err(|e| format!("advise {canonical}: {e}"))?;
        let advise_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(Ctx {
            key: advice.context.to_string(),
            json: encode_advice(&advice),
            advice,
            advise_ms,
        })
    }
}

/// Segment count of each ranked answer.
pub fn segment_counts(advice: &Advice) -> Vec<usize> {
    advice
        .ranked
        .iter()
        .map(|r| r.segmentation.queries().len())
        .collect()
}

/// A session whose every response is known in advance.
#[derive(Debug, Clone)]
pub struct Plan {
    /// `POST /session` body.
    pub body: String,
    /// Index of the root context.
    pub root: usize,
    /// `(rank, seg, child context)` per drill.
    pub drills: Vec<(u32, u32, usize)>,
}

/// One operation of a planned session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Start,
    Drill(usize),
    Delete,
}

impl Plan {
    pub fn steps(&self) -> Vec<Step> {
        let mut steps = vec![Step::Start];
        for i in 0..self.drills.len() {
            steps.push(Step::Drill(i));
        }
        steps.push(Step::Delete);
        steps
    }

    /// The context whose advice `step` must return, if any.
    pub fn expected(&self, step: Step) -> Option<usize> {
        match step {
            Step::Start => Some(self.root),
            Step::Drill(i) => Some(self.drills[i].2),
            Step::Delete => None,
        }
    }
}

/// Resolve scripts to plans: advise on every root and drill target in
/// process, deduplicating contexts by canonical key.
pub fn resolve(oracle: &Oracle, scripts: &[Script]) -> Result<(Vec<Plan>, Vec<Ctx>), String> {
    let mut ctxs: Vec<Ctx> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut intern = |ctx: Ctx, ctxs: &mut Vec<Ctx>| -> usize {
        *index.entry(ctx.key.clone()).or_insert_with(|| {
            ctxs.push(ctx);
            ctxs.len() - 1
        })
    };
    let mut plans = Vec::with_capacity(scripts.len());
    for s in scripts {
        let root_ctx = oracle.advise(&oracle.parse(&s.context)?)?;
        let counts = segment_counts(&root_ctx.advice);
        let mut drills = Vec::new();
        for &raw in &s.picks {
            let Some((rank, seg)) = pick(raw, &counts) else {
                continue;
            };
            let child = root_ctx
                .advice
                .segment(rank, seg)
                .expect("pick stays in range")
                .clone();
            let child_ctx = oracle.advise(&child)?;
            drills.push((rank as u32, seg as u32, intern(child_ctx, &mut ctxs)));
        }
        let root = intern(root_ctx, &mut ctxs);
        plans.push(Plan {
            body: s.context.clone(),
            root,
            drills,
        });
    }
    Ok((plans, ctxs))
}
