//! Keyed template stores: build a frozen world once per key and hand
//! out shared references to it afterwards.
//!
//! A campaign job's set-up mostly depends on a few job parameters, not
//! on its seed: a boot depends on `(profile, phys_bytes)`, the PHT
//! lane's calibrated predictor alias on the profile alone. Each such
//! world is built once into a [`TemplateStore`] and every job forks its
//! own copy from the shared template. Production code keeps one store
//! per kind of world in a `static` (the constructor is `const`); tests
//! build private stores so their hit and miss counts stay their own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Templates keyed by `K`, with hit and miss counts.
///
/// Keys are compared with `==` in a linear scan: a process holds a
/// handful of templates, one per profile at most.
pub struct TemplateStore<K, T> {
    templates: Mutex<Vec<(K, Arc<T>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, T> TemplateStore<K, T> {
    /// An empty store.
    pub const fn new() -> TemplateStore<K, T> {
        TemplateStore {
            templates: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Lookups served by an existing template.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that built their template first.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl<K: PartialEq + Clone, T> TemplateStore<K, T> {
    /// The template for `key`, built by `build` on first use.
    ///
    /// Builds under the lock: workers racing on a cold key wait for one
    /// build instead of each paying their own. A failed build stores
    /// nothing, so the next lookup of the key tries again.
    ///
    /// # Errors
    ///
    /// Returns `build`'s error.
    pub fn get_or_build<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        // A build that panicked pushed nothing, so a poisoned store is
        // still consistent.
        let mut templates = self.templates.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, template)) = templates.iter().find(|(k, _)| k == key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(template));
        }
        let template = Arc::new(build()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        templates.push((key.clone(), Arc::clone(&template)));
        Ok(template)
    }
}

impl<K, T> Default for TemplateStore<K, T> {
    fn default() -> TemplateStore<K, T> {
        TemplateStore::new()
    }
}

impl<K, T> std::fmt::Debug for TemplateStore<K, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateStore")
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_per_key_and_counts_reuse() {
        let store: TemplateStore<u32, String> = TemplateStore::new();
        let mut builds = 0;
        for key in [1, 1, 2, 1, 2] {
            let t = store
                .get_or_build(&key, || {
                    builds += 1;
                    Ok::<_, ()>(format!("world {key}"))
                })
                .unwrap();
            assert_eq!(*t, format!("world {key}"));
        }
        assert_eq!(builds, 2);
        assert_eq!((store.misses(), store.hits()), (2, 3));
    }

    #[test]
    fn a_failed_build_is_retried() {
        let store: TemplateStore<u32, u32> = TemplateStore::new();
        assert_eq!(store.get_or_build(&7, || Err("boom")), Err("boom"));
        assert_eq!(*store.get_or_build(&7, || Ok::<_, &str>(49)).unwrap(), 49);
        assert_eq!((store.misses(), store.hits()), (1, 0));
    }
}
