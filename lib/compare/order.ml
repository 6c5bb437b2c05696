let leq inst q a b = not (Sep.sep inst q a b)
let lt inst q a b = leq inst q a b && Sep.sep inst q b a
let equiv inst q a b = leq inst q a b && leq inst q b a
