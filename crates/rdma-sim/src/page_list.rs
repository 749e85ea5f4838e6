//! A sorted list of constant-size pages: the one structure under the
//! memory's paged log store and the replica's id set (`agreement`'s
//! `smr::core`). Both fill their pages roughly in key order, so the list
//! remembers the page it reached last and tries it before a binary search.

/// Pages of type `P` keyed by `K`, kept in key order in one `Vec`. A page
/// is added by the first key that reaches it and is never resized by the
/// list, so its only allocations are the `Vec`'s doublings (plus whatever
/// a page allocates itself).
#[derive(Debug)]
pub struct PageList<K, P> {
    /// Sorted by key: a miss of the last-page cache is a binary search.
    pages: Vec<(K, P)>,
    /// The page [`PageList::get_or_insert_with`] reached last — where the
    /// next write of an in-order writer lands.
    last: usize,
}

impl<K, P> Default for PageList<K, P> {
    fn default() -> Self {
        PageList {
            pages: Vec::new(),
            last: 0,
        }
    }
}

impl<K: Copy + Ord, P> PageList<K, P> {
    /// The position of page `key`, or where it would go.
    fn find(&self, key: K) -> Result<usize, usize> {
        match self.pages.get(self.last) {
            Some(&(k, _)) if k == key => Ok(self.last),
            _ => self.pages.binary_search_by_key(&key, |&(k, _)| k),
        }
    }

    /// Page `key`, if a key has reached it.
    #[inline]
    pub fn get(&self, key: K) -> Option<&P> {
        Some(&self.pages[self.find(key).ok()?].1)
    }

    /// Page `key`, added as `new()` in its place if no key reached it yet.
    /// Inlined: out of line it is one more call per register a `WriteMany`
    /// writes, the crash path's hottest loop.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: K, new: impl FnOnce() -> P) -> &mut P {
        self.last = self.find(key).unwrap_or_else(|at| {
            self.pages.insert(at, (key, new()));
            at
        });
        &mut self.pages[self.last].1
    }

    /// Every page with its key, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &P)> {
        self.pages.iter().map(|(key, page)| (*key, page))
    }

    /// How many pages fit before the list reallocates.
    pub fn capacity(&self) -> usize {
        self.pages.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_stay_sorted_and_each_key_is_added_once() {
        let mut list = PageList::<u64, Vec<u64>>::default();
        for key in [5, 1, 9, 5, 3, 9, 1] {
            list.get_or_insert_with(key, Vec::new).push(key);
        }
        let keys: Vec<u64> = list.iter().map(|(key, _)| key).collect();
        assert_eq!(keys, [1, 3, 5, 9]);
        assert_eq!(list.get(5), Some(&vec![5, 5]));
        assert_eq!(list.get(4), None);
        assert_eq!((list.find(4), list.find(9)), (Err(2), Ok(3)));
        assert!(list.capacity() >= 4);
    }

    #[test]
    fn the_cached_page_answers_only_its_own_key() {
        let mut list = PageList::<u64, u8>::default();
        *list.get_or_insert_with(2, || 0) = 20;
        *list.get_or_insert_with(1, || 0) = 10;
        // The cache holds page 1, now at position 0, so 2 is searched for.
        assert_eq!((list.find(1), list.find(2)), (Ok(0), Ok(1)));
        assert_eq!((list.get(1), list.get(2)), (Some(&10), Some(&20)));
    }
}
