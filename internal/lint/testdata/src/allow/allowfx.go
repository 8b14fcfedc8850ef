// Package allowfx exercises the allow-annotation grammar itself: a
// reason is mandatory, so a bare or empty annotation is a diagnostic,
// and so is one that covers no finding — the fixture runs no pass, so
// nothing here can use it.
package allowfx

//ggvet:allow() // want `ggvet:allow needs a reason`
var empty = 1

//ggvet:allow bare, no parens // want `ggvet:allow needs a reason`
var bare = 2

//ggvet:allow(a real reason, nested (parens) included) // want `ggvet:allow suppresses no finding`
var orphan = empty + bare
