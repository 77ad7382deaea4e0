package vfs

import "strings"

// CleanPath normalizes a path to an absolute, slash-separated form with no
// empty or "." components. ".." components are resolved lexically. The
// root is "/". A path already in that form is returned as it is, without
// allocating: every served operation passes through here.
func CleanPath(p string) string {
	if isClean(p) {
		return p
	}
	var parts []string
	for _, c := range strings.Split(p, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
		default:
			parts = append(parts, c)
		}
	}
	return "/" + strings.Join(parts, "/")
}

// isClean reports whether p is already CleanPath's result: "/", or "/"
// followed by components that are neither empty, "." nor "..".
func isClean(p string) bool {
	if p == "/" {
		return true
	}
	if len(p) < 2 || p[0] != '/' {
		return false
	}
	for rest := p[1:]; ; {
		c, tail, more := strings.Cut(rest, "/")
		if c == "" || c == "." || c == ".." {
			return false
		}
		if !more {
			return true
		}
		rest = tail
	}
}

// SplitPath splits a path into its non-empty components, resolving "." and
// "..".
func SplitPath(p string) []string {
	p = CleanPath(p)
	if p == "/" {
		return nil
	}
	return strings.Split(p[1:], "/")
}

// SplitDir splits a path into the parent directory and base name of its
// clean form, as slices of that form (no allocation for a clean path).
// SplitDir("/a/b/c") = ("/a/b", "c"); SplitDir("/a") = ("/", "a").
func SplitDir(p string) (dir, base string) {
	p = CleanPath(p)
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/", p[1:]
	}
	return p[:i], p[i+1:]
}

// BaseName returns the final component of a path.
func BaseName(p string) string {
	_, b := SplitDir(p)
	return b
}
