//! Interned strings for profile names and models.
//!
//! [`UarchProfile`](crate::UarchProfile) names used to be `&'static
//! str` literals, which ruled out uarches defined at runtime (the spec
//! layer, [`crate::spec`]). An [`IStr`] is a cheaply clonable
//! `Arc<str>` deduplicated through a global pool, so the thousands of
//! profile clones the trial runners make share one allocation per
//! distinct name and equality is almost always a pointer compare.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

/// An interned, immutable string. Dereferences to `str`; equal values
/// share one allocation process-wide.
///
/// # Examples
///
/// ```
/// use phantom_pipeline::IStr;
/// let a = IStr::new("Zen 2");
/// let b: IStr = "Zen 2".into();
/// assert_eq!(a, b);
/// assert_eq!(a, "Zen 2");
/// assert_eq!(a.len(), 5); // str methods via Deref
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IStr(Arc<str>);

// String keys: the std hasher is the right one here (see clippy.toml).
#[allow(clippy::disallowed_types)]
fn pool() -> &'static Mutex<std::collections::HashSet<Arc<str>>> {
    static POOL: OnceLock<Mutex<std::collections::HashSet<Arc<str>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(std::collections::HashSet::new()))
}

impl IStr {
    /// Intern `s`, reusing the pooled allocation if it was seen before.
    pub fn new(s: &str) -> IStr {
        let mut pool = pool().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = pool.get(s) {
            return IStr(Arc::clone(existing));
        }
        let arc: Arc<str> = Arc::from(s);
        pool.insert(Arc::clone(&arc));
        IStr(arc)
    }

    /// The string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for IStr {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> IStr {
        IStr::new(s)
    }
}

impl From<&String> for IStr {
    fn from(s: &String) -> IStr {
        IStr::new(s)
    }
}

impl From<String> for IStr {
    fn from(s: String) -> IStr {
        IStr::new(&s)
    }
}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<IStr> for &str {
    fn eq(&self, other: &IStr) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<String> for IStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_the_allocation() {
        let a = IStr::new("phantom-intern-test-shared");
        let b = IStr::new("phantom-intern-test-shared");
        assert!(Arc::ptr_eq(&a.0, &b.0), "same string, same allocation");
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_strings_stay_distinct() {
        let a = IStr::new("phantom-intern-test-a");
        let b = IStr::new("phantom-intern-test-b");
        assert_ne!(a, b);
        assert_eq!(a, "phantom-intern-test-a");
        assert_eq!("phantom-intern-test-b", b);
    }

    #[test]
    fn str_interop() {
        let a = IStr::new("Zen 2");
        assert_eq!(a.to_string(), "Zen 2");
        assert_eq!(format!("{a:?}"), "\"Zen 2\"");
        assert!(a.starts_with("Zen"));
        let sum: u64 = a.bytes().map(u64::from).sum();
        assert!(sum > 0);
    }

    #[test]
    fn usable_across_threads() {
        let a = IStr::new("phantom-intern-test-threads");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let a = a.clone();
                std::thread::spawn(move || IStr::new(a.as_str()))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), a);
        }
    }
}
