let append _ _ = ()
