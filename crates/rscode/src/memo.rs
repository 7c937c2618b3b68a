//! Per-code memo tables: entries built on first use and shared after.
//!
//! A code's prepared generator tables and its interpolation weights
//! depend only on the code itself, yet building one costs more than the
//! small encode or decode that first needs it. [`Memo`] keeps them as
//! state of the code value: construction builds nothing, each entry is
//! built once on first use, and every later lookup returns the shared
//! entry. Nothing is shared between code values, so the codec holds no
//! process-wide state.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// A lazily filled map from keys to shared, immutable entries.
///
/// A memo is not part of the identity of the code that holds it: any
/// two memos compare equal, and a clone starts with the entries built so
/// far.
pub(crate) struct Memo<K, V>(Mutex<BTreeMap<K, Arc<V>>>);

impl<K: Ord, V> Memo<K, V> {
    /// The entry for `key`, built by `build` on the first lookup.
    pub(crate) fn get_or_build<Q>(&self, key: &Q, build: impl FnOnce() -> V) -> Arc<V>
    where
        K: Borrow<Q>,
        Q: Ord + ToOwned<Owned = K> + ?Sized,
    {
        let mut map = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = map.get(key) {
            return Arc::clone(entry);
        }
        let entry = Arc::new(build());
        map.insert(key.to_owned(), Arc::clone(&entry));
        entry
    }
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo(Mutex::new(BTreeMap::new()))
    }
}

impl<K: Clone, V> Clone for Memo<K, V> {
    fn clone(&self) -> Self {
        Memo(Mutex::new(self.0.lock().unwrap_or_else(PoisonError::into_inner).clone()))
    }
}

impl<K, V> fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.0.lock().unwrap_or_else(PoisonError::into_inner).len();
        f.debug_struct("Memo").field("entries", &entries).finish()
    }
}

impl<K, V> PartialEq for Memo<K, V> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<K, V> Eq for Memo<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_each_key_once_and_shares_the_entry() {
        let memo: Memo<Vec<usize>, usize> = Memo::default();
        let mut builds = 0;
        let a = memo.get_or_build(&[1, 2][..], || {
            builds += 1;
            12
        });
        let b = memo.get_or_build(&[1, 2][..], || unreachable!("already built"));
        assert!(Arc::ptr_eq(&a, &b));
        let c = memo.get_or_build(&[2, 1][..], || {
            builds += 1;
            21
        });
        assert_eq!((*a, *c, builds), (12, 21, 2));
    }

    #[test]
    fn clones_keep_built_entries_and_memos_never_differ() {
        let memo: Memo<(), u8> = Memo::default();
        let a = memo.get_or_build(&(), || 7);
        let copy = memo.clone();
        assert!(Arc::ptr_eq(&a, &copy.get_or_build(&(), || unreachable!("cloned entry"))));
        assert_eq!(memo, Memo::default());
    }
}
