package query

import (
	"container/list"
	"sync"
)

// cacheEntry is one cached rendered response: the JSON body, its gzipped
// form (pre-compressed once so cache hits never re-deflate), and the
// strong ETag over the body. Entries are immutable after insertion.
type cacheEntry struct {
	body []byte
	gz   []byte // nil when the body is below the gzip threshold
	etag string
}

// resultCache is a mutex-guarded LRU over rendered responses. Keys embed
// the site generation (see Service.handle), so entries from a replaced
// site can never be returned for a live one; Purge drops them wholesale
// on swap to release the memory immediately.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type cacheItem struct {
	key   string
	entry *cacheEntry
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		items: make(map[string]*list.Element, capacity),
		order: list.New(),
	}
}

// get returns the cached entry for key and marks it most recently used.
func (c *resultCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(cacheItem).entry, true
}

// put inserts (or refreshes) an entry, evicting the least recently used
// entry when over capacity.
func (c *resultCache) put(key string, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value = cacheItem{key: key, entry: e}
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(cacheItem{key: key, entry: e})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(cacheItem).key)
	}
}

// Purge drops every entry.
func (c *resultCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = make(map[string]*list.Element, c.cap)
	c.order.Init()
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
